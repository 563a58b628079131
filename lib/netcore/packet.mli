(** Simulated packets.

    A packet carries its flow key, payload size, an L4 annotation (for
    the TCP model) and a stack of encapsulations pushed/popped as it
    traverses vswitches, NICs and ToRs. Encapsulation contents are
    modelled (who encapsulated, which tenant key) rather than serialized
    to bytes — the simulator needs semantics and sizes, not bits. *)

type encap =
  | Vlan of int  (** 802.1Q tag on the server–ToR hop; carries tenant. *)
  | Gre of { tunnel_dst : Ipv4.t; key : Tenant.id }
      (** ToR-applied GRE: destination is the remote ToR loopback. *)
  | Vxlan of { tunnel_dst : Ipv4.t; vni : Tenant.id }
      (** vswitch-applied VXLAN: destination is the remote server. *)

type l4 =
  | Plain  (** Payload with no transport semantics (UDP-ish). *)
  | Tcp_seg of { seq : int; ack : int; len : int; flags : tcp_flags }
  | App of { fin : bool; count : int }
      (** Application-level framing riding on a plain datagram: a
          cumulative message [count] and an end-of-transfer marker.
          Same wire size as [Plain] — it models bytes already inside
          the payload, not an extra header. *)

and tcp_flags = { syn : bool; fin : bool; is_ack : bool }

type t = {
  flow : Fkey.t;
  payload : int;  (** L5 payload bytes. *)
  l4 : l4;
  bulk : bool;
      (** True for packets travelling in back-to-back trains (bulk
          transfers): they benefit from GSO/GRO/LRO-style batching in
          the guest stack and the vswitch. Request/response packets are
          not bulk — each one pays the full wakeup chain. *)
  mutable encaps : encap list;  (** Innermost last; pushed at head. *)
  mutable hops : int;  (** Forwarding elements traversed (loop guard). *)
  sent_at : Dcsim.Simtime.t;
  uid : int;  (** Unique per simulation run, for tracing. *)
}

val create :
  now:Dcsim.Simtime.t -> flow:Fkey.t -> payload:int -> ?l4:l4 -> ?bulk:bool -> unit -> t

val data_packet : now:Dcsim.Simtime.t -> flow:Fkey.t -> payload:int -> t
(** [l4 = Plain]. *)

val copy : t -> t
(** A duplicate sharing the flow key and payload but with its own
    mutable encapsulation stack and hop count, so a duplicated delivery
    (fault injection) cannot corrupt the original's encap state. Keeps
    the original's [uid] — it is the same logical packet on the wire. *)

val push_encap : t -> encap -> unit

val pop_encap : t -> encap option
(** Removes and returns the outermost encapsulation. *)

val outer_encap : t -> encap option

val wire_size : t -> int
(** Bytes on the wire including all current encapsulations. *)

val vlan_of : t -> int option
(** The VLAN tag if the outermost encap is a VLAN. *)

val reset_uid_counter : unit -> unit
(** For test isolation: restart uid allocation from zero. *)
