(** The modified Linux bonding driver housing the flow placer (§4.1.1).

    The VM sees one bonded interface; underneath, the flow placer
    directs each flow out of either the software VIF or the SR-IOV VF.
    Its control plane holds wildcard rules installed by the FasTrak
    local controller through an OpenFlow-style interface; the data
    plane is an exact-match hash table populated on first packet
    (control and data plane share the kernel context, so the first
    packet pays no meaningful extra latency). Default path: VIF. *)

type path = Vif | Vf

type t

val create :
  vif_tx:(Netcore.Packet.t -> unit) -> vf_tx:(Netcore.Packet.t -> unit) -> t

val transmit : t -> Netcore.Packet.t -> unit

val install_rule :
  t -> pattern:Netcore.Fkey.Pattern.t -> priority:int -> path -> Rules.Rule_table.rule_id

val remove_rule : t -> Rules.Rule_table.rule_id -> bool

val rules :
  t -> (Rules.Rule_table.rule_id * Netcore.Fkey.Pattern.t * path) list
(** Live placer rules (id, pattern, path), lowest priority first. The
    local controller reconciles these against its restored intent after
    a crash/restart. *)

val path_for : t -> Netcore.Fkey.t -> path
(** Current placement decision for a flow (no cache side effects). *)

val packets_via_vif : t -> int
val packets_via_vf : t -> int
