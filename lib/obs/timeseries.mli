(** Per-epoch metric snapshots with streaming quantiles.

    A {!series} is a named stream of float observations (directive RTT
    in µs, offload install latency, TCAM occupancy, per-path pps).
    Each series keeps count, sum, last value and three P² quantile
    estimators (p50/p90/p99, Jain & Chlamtac 1985) — constant memory,
    no stored samples, so a rack-size run can observe millions of
    values. {!tick} appends one {!row} per non-empty series, stamped
    with sim time; rows serialise to JSONL or CSV for
    [--timeseries-out].

    Collection is off by default and observation sites guard with
    {!enabled}, so an uncollected run costs one load and one branch per
    site — the same zero-overhead contract as {!Trace}. Series handles
    may be created eagerly at module init; creation never observes. *)

type quantiles = {
  count : int;
  mean : float;
  last : float;
  p50 : float;
  p90 : float;
  p99 : float;
}
(** Estimator state of one series at a point in time. With fewer than
    five observations the quantiles are exact order statistics; from
    five on they are P² estimates. All zero when [count = 0]. *)

type series
(** A named observation stream. Handles are stable for the process
    lifetime; {!reset_series} clears state but keeps handles valid. *)

type row = {
  at : Dcsim.Simtime.t;
  series_name : string;
  stats : quantiles;
}
(** One snapshot of one series, appended by {!tick}. *)

type t
(** A collector: a set of series plus accumulated rows. Sites use the
    implicit default collector; tests can pass their own. *)

val create : unit -> t

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** Whether the default collector is on: the guard observation sites
    check before computing a value. *)

val series : ?collector:t -> string -> series
(** Get or create the series named [name]. Series names follow the
    metric convention (e.g. ["fastrak.directive_rtt_us"]); see
    [docs/METRICS.md]. *)

val observe : series -> float -> unit
(** Feed one observation (NaN is dropped). Callers guard with
    {!enabled} — observing into a disabled collector still updates the
    estimators. *)

val quantiles : series -> quantiles
(** Current estimator state (cheap: no sorting, no allocation beyond
    the record). *)

val tick : ?collector:t -> now:Dcsim.Simtime.t -> unit -> unit
(** Append one row per series that has at least one observation, in
    series-creation order. Called once per control interval by the TOR
    controller when collection is on. *)

val rows : ?collector:t -> unit -> row list
(** All rows appended so far, oldest first. *)

val reset_series : ?collector:t -> unit -> unit
(** Zero every series' estimators (count, sum, quantile markers) but
    keep handles and accumulated rows. The chaos harness calls this
    between fault profiles so each profile's percentiles are its own. *)

(** {1 Output} *)

val row_to_jsonl : row -> string
(** One-line JSON object: [t_ns], [t] (seconds), [series], [count],
    [mean], [last], [p50], [p90], [p99]. Floats use ["%.17g"] so rows
    round-trip exactly. *)

val write_jsonl : out_channel -> row list -> unit
val write_csv : out_channel -> row list -> unit
(** CSV with header [t_ns,series,count,mean,last,p50,p90,p99]. *)
