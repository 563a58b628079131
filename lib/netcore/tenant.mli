(** Tenant identifiers.

    Every packet crossing the provider fabric is attributable to exactly
    one tenant; the id rides in the GRE key (32 bits, so up to 2^32
    tenants — §4.1.3) or in a VLAN tag on the server–ToR hop. *)

type id = private int

val of_int : int -> id
(** @raise Invalid_argument outside [0, 2^32). *)

val to_int : id -> int
val compare : id -> id -> int
val equal : id -> id -> bool
val pp : Format.formatter -> id -> unit

val to_vlan : id -> int
(** 12-bit VLAN tag used on the server–ToR hop. Only valid for tenants
    that have been allocated a local VLAN (id < 4095 in this model);
    @raise Invalid_argument otherwise. *)
