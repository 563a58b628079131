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
    used by both OVS's kernel datapath and the flow placer. *)

module Packed : sig
  (** Int-packed flow key for the per-packet hot path.

      The 6-tuple is flattened into three OCaml ints —
      [w0 = src_ip << 16 | src_port], [w1 = dst_ip << 16 | dst_port],
      [w2 = proto_rank << 32 | tenant] — plus a precomputed hash, all
      immediates in one flat record. [hash] and [equal] therefore
      allocate nothing (no tuple construction, no field boxing), which
      is what lets the exact-tier flow-cache probe run allocation-free.
      Convert at the [Fkey.t] boundary with {!of_fkey}/{!to_fkey}. *)

  type fkey := t

  type t = private { w0 : int; w1 : int; w2 : int; h : int }

  val of_fkey : fkey -> t
  (** @raise Invalid_argument if a port is outside [0, 65535] or the
      protocol rank overflows its 30-bit slot. *)

  val to_fkey : t -> fkey
  (** Exact inverse of {!of_fkey}. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int

  val hash : t -> int
  (** Returns the precomputed field — zero work, zero allocation. *)

  val pp : Format.formatter -> t -> unit

  module Table : Hashtbl.S with type key = t
  (** Hash table keyed by packed flow — the exact-tier datapath
      structure; probes allocate nothing. *)
end

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

    val equal : t -> t -> bool
    val compare : t -> t -> int
    val hash : t -> int
    val pp : Format.formatter -> t -> unit
  end
end
