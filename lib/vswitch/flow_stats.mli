(** Per-flow packet/byte counters, as kept by the OVS datapath and the
    ToR VRF tables and polled by the FasTrak measurement engines. *)

type counters = { mutable packets : int; mutable bytes : int }
type t

val create : unit -> t
val record : t -> Netcore.Fkey.t -> packets:int -> bytes:int -> unit
val find : t -> Netcore.Fkey.t -> counters option
val remove : t -> Netcore.Fkey.t -> unit
val clear : t -> unit

val fold : t -> init:'a -> f:('a -> Netcore.Fkey.t -> counters -> 'a) -> 'a
val to_list : t -> (Netcore.Fkey.t * int * int) list
(** [(flow, cumulative packets, cumulative bytes)] snapshot. *)
