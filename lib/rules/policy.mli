(** The complete network-virtualization policy of one VM.

    This is the "unified set" FasTrak manages (§1): security ACLs,
    tunnel mappings and the contracted transmit limit. The
    vswitch enforces it in software; the rule compiler extracts the
    flow-specific slice for hardware offload. *)

type t

val create :
  tenant:Netcore.Tenant.id ->
  vm_ip:Netcore.Ipv4.t ->
  ?tx_limit:Rate_limit_spec.t ->
  unit ->
  t
(** The transmit limit defaults to {!Rate_limit_spec.unlimited} and is
    fixed for the policy's lifetime: FPS re-splits it across the VIF
    and VF shapers, never here. A freshly created policy contains the
    default-deny ACL backstop only. *)

val tenant : t -> Netcore.Tenant.id
val vm_ip : t -> Netcore.Ipv4.t
val tx_limit : t -> Rate_limit_spec.t

val add_acl : t -> Security_rule.t -> unit
val install_tunnel : t -> Tunnel_rule.t -> unit
val remove_tunnel : t -> vm_ip:Netcore.Ipv4.t -> unit
val acl_count : t -> int
val acls : t -> Security_rule.t list
val tunnel_lookup : t -> dst_ip:Netcore.Ipv4.t -> Tunnel_rule.endpoint option

type verdict = {
  action : Security_rule.action;
  tunnel : Tunnel_rule.endpoint option;
      (** Destination location, [None] if the mapping is unknown (packet
          must be dropped or sent to the controller). *)
}

val classify : t -> Netcore.Fkey.t -> verdict
(** Full policy evaluation for one flow key. Deterministic: highest
    priority ACL wins, ties broken by insertion order (later wins). *)

val classify_masked : t -> Netcore.Fkey.t -> verdict * Netcore.Fkey.Pattern.Mask.t
(** Like {!classify}, additionally returning the union of the fields
    examined by every rule the scan visited (plus dst_ip when tunnels
    are installed). Projecting the mask onto the flow yields the widest
    wildcard pattern guaranteed to receive this same verdict — the
    megaflow the datapath cache may install. *)

val generation : t -> int
(** Monotonic mutation counter: bumped by every [add_acl],
    [install_tunnel] and [remove_tunnel]. Datapath caches compare it to
    the generation they captured to detect stale verdicts in O(1). *)

val verdict_to_string : verdict -> string
(** Compact ["allow/10.0.0.2"]-style encoding, used by trace events
    so the coherence monitor can compare verdicts without depending on
    this library. *)
