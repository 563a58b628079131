(** Per-flow packet/byte counters, as kept by the OVS datapath and the
    ToR VRF tables and polled by the FasTrak measurement engines. A
    flow enters on its first {!record}; its counters only grow until
    {!expire} forgets it. *)

type t

val create : unit -> t
val record : t -> Netcore.Fkey.t -> packets:int -> bytes:int -> unit

val expire : t -> unit
(** Forget every flow whose counters have not moved since the previous
    call (on the first call, none: every flow has moved since it
    entered), as OVS expires idle datapath flows. A forgotten flow that
    resumes re-enters with only its new counts. The FasTrak
    measurement engine calls it at the start of each epoch, before its
    first snapshot; nothing else does. *)

val to_list : t -> (Netcore.Fkey.t * int * int) list
(** [(flow, cumulative packets, cumulative bytes)] snapshot. *)
