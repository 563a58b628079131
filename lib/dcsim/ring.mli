(** Fixed-capacity ring buffer of float samples.

    Built for per-epoch measurement histories: pushing is O(1) with no
    allocation (the backing store is one unboxed float array sized at
    creation), and once full the newest sample overwrites the oldest.
    Contrast with a cons-list history plus per-push trim, which
    allocates O(capacity) every epoch and walks the list to truncate. *)

type t

val create : capacity:int -> t
(** [capacity] must be >= 1; raises [Invalid_argument] otherwise. *)

val length : t -> int
(** Samples currently held, between 0 and [capacity]. *)

val is_empty : t -> bool

val push : t -> float -> unit
(** Append the newest sample, evicting the oldest when full. *)

val latest : t -> float option
(** The most recently pushed sample. *)

val fold : ('a -> float -> 'a) -> 'a -> t -> 'a
(** Oldest to newest. *)

val count : (float -> bool) -> t -> int
(** Samples satisfying the predicate. *)

val filter_into : (float -> bool) -> t -> float array -> int
(** [filter_into keep t dst] copies the samples satisfying [keep] into
    [dst] (which must have room, i.e. [Array.length dst >= length t])
    and returns how many were written. Lets callers compute order
    statistics over a subset without building intermediate lists. *)
