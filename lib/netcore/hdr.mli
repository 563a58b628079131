(** Wire-format header sizes, in bytes.

    Used to compute on-the-wire packet sizes, serialization delays and
    encapsulation overheads. MTU is 1500 as in the paper's testbed. *)

val mtu : int
val ethernet : int
(** Ethernet header + FCS (18) — preamble/IFG are accounted in the link
    model, not here. *)

val vlan_tag : int
val ipv4 : int
val tcp : int
(** Without options; the simulator does not model SACK blocks etc. *)

val udp : int
val gre : int
(** GRE with a 4-byte key (carries the tenant id) — RFC 1701 style. *)

val vxlan : int
(** VXLAN = outer UDP (8) + VXLAN header (8). Outer IP/Ethernet are
    added separately when computing the full encapsulated frame. *)

val max_tcp_payload : int
(** MSS: MTU minus IP and TCP headers. *)

val frames : payload:int -> int
(** MTU-sized frames a [payload]-byte message occupies on the wire:
    [payload / max_tcp_payload] rounded up, and at least 1, so an empty
    message still takes a frame. *)
