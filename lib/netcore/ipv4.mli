(** IPv4 addresses.

    Tenant address spaces overlap (requirement C1 of the paper), so an
    address alone never identifies a VM — pair it with a {!Tenant.id}. *)

type t = private int
(** Stored as a 32-bit value in the host-endian low bits of an int. *)

val of_int32 : int32 -> t
val of_octets : int -> int -> int -> int -> t
val of_string : string -> t
(** Parses dotted-quad notation. @raise Invalid_argument on bad input. *)

val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val in_prefix : t -> prefix:t -> len:int -> bool
(** [in_prefix addr ~prefix ~len] tests membership in [prefix/len]. *)

val offset : t -> int -> t
(** [offset base k] is the address [k] above [base] — handy when
    enumerating VM addresses in a subnet. *)
