(** Simulated time.

    Time is an integer count of nanoseconds since the start of the
    simulation. Using integers keeps event ordering exact and the
    simulation deterministic; on a 64-bit platform the native [int]
    covers ~292 years of simulated time, far beyond any experiment. *)

type t = private int
(** A point in simulated time, in nanoseconds. Totally ordered. *)

type span = private int
(** A duration in nanoseconds. Durations and instants are kept distinct
    so that e.g. two instants cannot be added together by mistake. *)

(** {2 Instants: construction and conversion} *)

val zero : t
val of_ns : int -> t
val of_us : float -> t
val of_ms : float -> t
val of_sec : float -> t
val to_ns : t -> int
val to_us : t -> float
val to_sec : t -> float

val add : t -> span -> t
(** The instant one duration later. *)

val never : t
(** After every schedulable instant: the "nothing pending" sentinel. *)

(** {2 Durations: construction, arithmetic and conversion} *)

val span_ns : int -> span
val span_us : float -> span
val span_ms : float -> span
val span_sec : float -> span
val span_zero : span
val span_add : span -> span -> span
val span_sub : span -> span -> span
val span_scale : float -> span -> span
val span_max : span -> span -> span
val span_compare : span -> span -> int
val span_to_ns : span -> int
val span_to_us : span -> float
val span_to_sec : span -> float

val span_of_bytes_at_rate : bytes_len:int -> gbps:float -> span
(** Serialization delay of [bytes_len] bytes on a [gbps] Gb/s link. *)

val diff : t -> t -> span
(** [diff later earlier] is the duration between two instants. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val pp : Format.formatter -> t -> unit
val pp_span : Format.formatter -> span -> unit
