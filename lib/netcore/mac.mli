(** Ethernet MAC addresses, used by the NIC to steer received packets to
    the SR-IOV virtual function of the right VM (§4.2.2). *)

type t = private int

val of_int : int -> t
(** Low 48 bits are the address. *)

val vm_mac : server:int -> vm:int -> t
(** Deterministic locally-administered MAC for VM [vm] on server
    [server]; distinct inputs yield distinct addresses. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
