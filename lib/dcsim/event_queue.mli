(** Priority queue of timestamped events.

    A binary min-heap ordered by (time, sequence number). The sequence
    number breaks ties so that events scheduled for the same instant
    fire in scheduling order, which keeps runs deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

type handle
(** Identifies a scheduled event so it can be cancelled. An immediate
    int, meaningful only to the queue that issued it: another queue may
    read it as one of its own events. *)

val push : 'a t -> Simtime.t -> 'a -> handle
(** Allocates nothing, apart from doubling the queue's arrays when they
    fill. @raise Failure past 2{^24} pending events or 2{^38} pushes,
    which a handle cannot tell apart. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes the event at once, in O(log n). It returns
    [false] and changes nothing if the event already fired or was
    already cancelled. A removed event's payload cell is cleared, so the
    queue does not retain fired or cancelled closures. *)

val min_time : 'a t -> Simtime.t
(** Earliest timestamp, or {!Simtime.never} if empty. Allocates
    nothing. *)

val pop_min : 'a t -> 'a
(** Remove the {!min_time} event and return its payload, allocating
    nothing. @raise Invalid_argument if empty. *)
