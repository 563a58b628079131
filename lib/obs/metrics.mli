(** Simulator-wide metrics registry.

    Components declare named instruments once (typically at module
    initialisation) and update them on their hot paths; an instrument is
    shared by every component instance that asks for the same name, so
    e.g. ["vswitch.upcalls"] aggregates across all servers of a testbed.
    Updates are a single in-place mutation — cheap enough to leave on
    unconditionally, which keeps untraced runs byte-identical while the
    registry still answers "what happened" at any point.

    Aggregation reuses {!Dcsim.Stats}: summaries are Welford streams,
    histograms are the log-bucketed latency histograms. The registry can
    be dumped to JSON or CSV at end of run (the CLI's [--metrics-out]),
    and {!snapshot}/{!diff} support per-experiment deltas.

    Naming convention: [<library>.<component>.<what>], lower-case, e.g.
    ["tor.tcam.used"], ["fastrak.promotions"]. The full catalogue lives
    in [docs/METRICS.md]. *)

type t
(** A registry. Most code uses the implicit {!default} registry. *)

val create : unit -> t
val default : t

(** {1 Instruments}

    Each accessor is get-or-create: the first call under a name fixes
    its kind; asking for the same name with a different kind raises
    [Invalid_argument]. *)

type counter

val counter : ?registry:t -> string -> counter
(** Monotonically increasing integer count. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

type gauge

val gauge : ?registry:t -> string -> gauge
(** Last-written float value (e.g. current TCAM occupancy). *)

val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

type summary

val summary : ?registry:t -> string -> summary
(** Streaming count/sum/mean/min/max over observed values
    ({!Dcsim.Stats.Summary}). *)

val observe : summary -> float -> unit

type histogram

val histogram : ?registry:t -> string -> histogram
(** Log-bucketed percentile histogram ({!Dcsim.Stats.Histogram}). *)

val record : histogram -> float -> unit

(** {1 Labeled families}

    A family is a bounded set of per-label-value counters sharing one
    base name — the dimensional breakdown (per tenant, per rack, per
    path) the flat instruments above cannot express. Each series is an
    ordinary registry instrument named [base{label=<value>}] with the
    value in double quotes, Prometheus-style (so snapshots, dumps and
    resets see it like any other), but the hot
    path addresses series by {e integer} key — a tenant id, a rack
    index, a path rank — so the steady-state lookup is one int-keyed
    hash probe with no string building and no allocation.

    Cardinality is bounded: after [max_series] distinct keys (default
    64), every further key shares one overflow series labeled
    [__other__]. Label values rendered from keys are escaped before
    they enter the series name (double quote, backslash, newline and
    closing brace), so a hostile renderer cannot forge names. *)

type counter_family

val counter_family :
  ?registry:t ->
  ?max_series:int ->
  label:string ->
  ?render:(int -> string) ->
  string ->
  counter_family
(** Declare (or re-open) the counter family [name] keyed on [label].
    [render] turns the integer key into the label value (default
    [string_of_int]). Re-opening an already-declared family returns
    the {e same} handle — one shared key cache, so
    {!labeled_counter_values} sees keys touched at every call site —
    keeping the first declaration's render and cardinality bound; the
    label must agree. Raises [Invalid_argument] when [max_series < 1]
    or on a label mismatch. *)

val labeled_counter : counter_family -> int -> counter
(** The series for one key — get-or-create, overflow-bounded. Cache the
    handle when the key is static; the lookup itself is allocation-free
    for already-seen keys, so per-packet call sites may also just call
    this every time. *)

val labeled_counter_values : counter_family -> (int * int) list
(** Current [(key, count)] of every non-overflow series, sorted by key
    (the per-tenant pps sampler and the SLO scoreboard read these). *)

val family_names : ?registry:t -> unit -> (string * string) list
(** Every declared family as [(base name, label)], sorted by base name
    — how the METRICS.md drift check enumerates families that have not
    seen a value yet. *)

val base_name : string -> string
(** Strip the [{label=...}] suffix of a labeled series name (plain
    names pass through). *)

(** {1 Snapshots and dumps} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Summary_v of {
      count : int;
      sum : float;
      mean : float;
      vmin : float;
      vmax : float;
    }
  | Histogram_v of { count : int; mean : float; p50 : float; p99 : float; hmax : float }

val snapshot : ?registry:t -> unit -> (string * value) list
(** Current value of every registered instrument, sorted by name. *)

val find : ?registry:t -> string -> value option

val diff :
  before:(string * value) list ->
  after:(string * value) list ->
  (string * value) list
(** Per-experiment delta between two snapshots: counters subtract;
    summaries and histograms subtract count/sum and keep the [after]
    shape statistics; gauges report the [after] value. Instruments that
    did not move between the snapshots are dropped. *)

val to_json : (string * value) list -> string
(** A single JSON object keyed by metric name. Counters and gauges are
    bare numbers; summaries and histograms are objects. *)

val to_csv : (string * value) list -> string
(** Header [name,kind,count,value,mean,min,max,p50,p99]; the [value]
    column is the count/sum for aggregating instruments. *)

val reset : ?registry:t -> unit -> unit
(** Zero every instrument in place (handles stay valid). *)
