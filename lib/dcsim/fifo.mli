(** First-in first-out queue over a growable circular array.

    Built for the simulator's long-lived queues (CPU run queues,
    shapers, switch ports), which stay non-empty for most of a run.
    [Stdlib.Queue] links each new cell from the previous tail, so once
    the tail has been promoted to the major heap, every minor
    collection promotes the young cells and elements behind it, dead
    or not. Here a push writes one array slot, and a pop overwrites its
    slot at once, so a popped element is not retained and is not
    promoted through the queue. Push and pop are amortised O(1); the
    array doubles when full and never shrinks. *)

type 'a t

val create : unit -> 'a t
(** An empty queue; the array is allocated at the first push. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail. *)

val peek : 'a t -> 'a
(** The oldest element, left in place.
    @raise Invalid_argument if the queue is empty. *)

val pop : 'a t -> 'a
(** Remove and return the oldest element.
    @raise Invalid_argument if the queue is empty. *)
