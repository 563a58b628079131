(** Priority queue of timestamped events.

    A binary min-heap ordered by (time, sequence number). The sequence
    number breaks ties so that events scheduled for the same instant
    fire in scheduling order, which keeps runs deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val push : 'a t -> Simtime.t -> 'a -> handle
(** Allocates the heap entry (6 words) and nothing else. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes the event; returns [false] if it already fired
    or was already cancelled — both are safe no-ops that leave
    {!length} untouched. Cancellation is amortised O(1): deletion is
    lazy, but once cancelled entries outnumber live ones the heap is
    compacted in a single pass so it cannot grow without bound under
    heavy reschedule churn. Popped and compacted-away slots are
    cleared, so the queue does not retain payload closures. *)

val min_time : 'a t -> Simtime.t
(** Earliest live timestamp, or {!Simtime.never} if empty. Drops
    cancelled entries off the top; allocates nothing. *)

val pop_min : 'a t -> 'a
(** Remove the {!min_time} event and return its payload, allocating
    nothing. @raise Invalid_argument if empty. *)

val pop : 'a t -> (Simtime.t * 'a) option
(** Boxed {!min_time} + {!pop_min}, for callers off the hot path. *)

val peek_time : 'a t -> Simtime.t option
(** Boxed {!min_time}, for callers off the hot path. *)
