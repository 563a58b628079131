(** Flow keys.

    The paper specifies a flow by a 6-tuple: source and destination IPs,
    L4 ports, L4 protocol and a tenant ID (§4.3.1). Flow {e aggregates}
    are wildcarded patterns over the same fields — e.g. all flows of one
    service are <src VM IP, src L4 port, tenant> with the rest wild. *)

type proto = Tcp | Udp | Icmp | Other of int

val proto_compare : proto -> proto -> int

type t = {
  src_ip : Ipv4.t;
  dst_ip : Ipv4.t;
  src_port : int;
  dst_port : int;
  proto : proto;
  tenant : Tenant.id;
}

val make :
  src_ip:Ipv4.t ->
  dst_ip:Ipv4.t ->
  src_port:int ->
  dst_port:int ->
  proto:proto ->
  tenant:Tenant.id ->
  t

val reverse : t -> t
(** Swap source and destination — the key of the return traffic. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t
(** Hash table keyed by exact flow — the O(1) fast-path lookup structure
    used by both OVS's kernel datapath and the flow placer. [hash] and
    [equal] work on immediates only, so a probe allocates nothing. *)

module Pattern : sig
  (** Wildcard pattern over the 6-tuple; [None] fields match anything. *)

  type fkey := t

  type t = {
    src_ip : Ipv4.t option;
    dst_ip : Ipv4.t option;
    src_port : int option;
    dst_port : int option;
    proto : proto option;
    tenant : Tenant.id option;
  }

  val any : t
  val exact : fkey -> t
  val matches : t -> fkey -> bool

  val specificity : t -> int
  (** Number of concrete fields, 0–6. Used as a default rule priority:
      more specific patterns win. *)

  val src_aggregate : fkey -> t
  (** <source IP, source L4 port, tenant> with the rest wild — the
      per-VM-per-application aggregation rule of thumb from §4.3.1. *)

  val dst_aggregate : fkey -> t
  (** <destination IP, destination L4 port, tenant> with the rest wild. *)

  val from_vm : Ipv4.t -> Tenant.id -> t
  (** All flows sourced by one VM. *)

  val to_vm : Ipv4.t -> Tenant.id -> t
  (** All flows destined to one VM. *)

  val is_subset : t -> of_:t -> bool
  (** [is_subset p ~of_:q]: every flow matching [p] also matches [q]. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int
  val pp : Format.formatter -> t -> unit

  module Table : Hashtbl.S with type key = t
  (** Hash table keyed by pattern — the O(1) membership structure the
      decision engine and TOR controller use for offloaded-set lookups
      at rack-scale flow counts. *)

  module Mask : sig
    (** Which of the 6-tuple fields a classification decision examined.

        This is the megaflow-cache mask: classifying a flow records the
        union of fields of every rule the scan visited, and
        [project mask flow] is then the widest wildcard pattern that is
        guaranteed to receive the same verdict as [flow] — one cache
        entry absorbs every flow that agrees on the masked fields. *)

    type pattern := t

    type t = {
      src_ip : bool;
      dst_ip : bool;
      src_port : bool;
      dst_port : bool;
      proto : bool;
      tenant : bool;
    }

    val none : t
    val all : t
    val union : t -> t -> t

    val of_pattern : pattern -> t
    (** The fields a pattern constrains (its [Some] fields). *)

    val project : t -> fkey -> pattern
    (** Pin the masked fields to the flow's values, wildcard the rest. *)

    val hash_flow : t -> fkey -> int
    (** Hash of the flow's masked fields; allocates nothing. A flow [k]
        that pattern [p] matches has
        [hash_flow (of_pattern p) k = hash_pattern p]. *)

    val hash_pattern : pattern -> int
    (** Hash of the pattern's concrete fields; see {!hash_flow}. *)

    val equal : t -> t -> bool
    val compare : t -> t -> int
    val hash : t -> int
    val pp : Format.formatter -> t -> unit
  end
end
