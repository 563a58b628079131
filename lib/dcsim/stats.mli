(** Measurement utilities: summaries, histograms, percentiles, medians.

    These back both the simulator's reported metrics (mean/99th latency,
    TPS, CPU utilisation) and FasTrak's measurement engine. *)

module Summary : sig
  (** Streaming summary: count / sum / min / max / mean / variance
      (Welford's online algorithm). *)

  type t

  val create : unit -> t
  val clear : t -> unit
  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  val stddev : t -> float

  val min : t -> float
  (** [nan] when empty (rendered as [null] in metric snapshots), so an
      empty summary cannot be mistaken for one that observed 0. *)

  val max : t -> float
  (** [nan] when empty; see {!min}. *)
end

module Histogram : sig
  (** Log-bucketed latency histogram (HdrHistogram-style): values are
      recorded exactly below [precision] and with bounded relative error
      above, which makes tail percentiles cheap and memory constant. *)

  type t

  val create : unit -> t
  val clear : t -> unit
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val percentile : t -> float -> float
  (** [percentile t 99.0] is the value at the given percentile; 0 when
      empty. [p] must be in (0, 100]. *)

  val max : t -> float
end

val median : float list -> float
(** Median of a list; 0 when empty. *)

val median_in_place : float array -> int -> float
(** [median_in_place a n] is the median of [a.(0) .. a.(n-1)], sorting
    that prefix in place (no allocation beyond the sort); 0 when [n] is
    0. The hot-path counterpart of {!median} for callers that already
    own a scratch array. *)
