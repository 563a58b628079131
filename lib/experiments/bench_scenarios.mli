(** Named benchmark scenarios and the allocation budgets they carry.

    Each scenario exercises one hot path — the measure→score→decide→
    install pipeline, the event core, the datapath caches, the
    observability layer or the load generator — and reports throughput
    plus allocation pressure. A scenario that bounds its allocation
    declares the bound itself ({!result.budget}). The harness
    ([bench/main.exe bench]) runs {!groups}, writes one
    machine-readable [BENCH_<group>.json] per group and fails when a
    result exceeds its budget; the [@alloc-check] dune alias runs every
    group at smoke size on each [dune runtest]. Schema and scenario
    list: [docs/BENCH.md]. *)

type result = {
  scenario : string;  (** e.g. ["decide/10000c-2000o"]. *)
  unit_ : string;  (** What one "op" is: ["call"], ["epoch"], ["event"]. *)
  params : (string * float) list;  (** Scenario sizing knobs. *)
  runs : int;  (** Timed repetitions behind the averages. *)
  ns_per_op : float;
  ops_per_sec : float;
  minor_words_per_op : float;  (** GC minor words allocated per op. *)
  baseline_ns_per_op : float option;
      (** Same scenario on the pre-optimisation (list-based) code path,
          when one exists; [ns_per_op] vs this is the speedup. *)
  budget : float option;
      (** The most minor words per op the scenario may allocate, at
          any size; allocation counts are deterministic, so an overrun
          is a regression, not noise. Not written to the JSON. *)
}

val measure :
  smoke:bool ->
  ?baseline:(unit -> unit) ->
  ?budget:float ->
  ?params:(string * float) list ->
  unit_:string ->
  ops:int ->
  string ->
  (unit -> unit) ->
  result
(** [measure ~smoke ~unit_ ~ops name run] times [run], one call of
    which performs [ops] ops: one discarded warmup call, then calls
    until at least two have run and 0.2 CPU seconds (0.02 with
    [smoke]) have passed. CPU time and minor words are divided by the
    ops executed. [baseline] is the same work on a reference code path,
    timed the same way (at least one call) into [baseline_ns_per_op]. *)

val groups : (string * (smoke:bool -> result list)) list
(** Every scenario group, in run order, by its JSON file's name. Smoke
    sizes are tiny but keep each budgeted scenario's name:
    - ["decision"]: the decision engine's knapsack at 1k/10k/50k
      candidates with ~20% currently offloaded (smoke: 200, plus the
      budgeted 10k case); sizes that keep it affordable also time
      {!Fastrak.Decision_engine.decide_list_baseline}.
    - ["measurement"]: measurement-engine epochs over 10k aggregates
      (smoke: 200): counter polls, ring updates, reports with medians;
      and the budgeted [me-churn] row, an ME over a real
      {!Vswitch.Flow_stats} holding 10k long-finished flows and 16
      live ones, priced per live flow.
    - ["eventqueue"]: push/drain churn, a variant cancelling 90% of
      its events, and re-arming 1024 timers (zero budget).
    - ["obs"]: one trace emission site with tracing off, a callback
      sink and the JSONL sink; span pairs; {!Obs.Timeseries.observe};
      {!Obs.Flight.record} and a labeled counter increment (both zero
      budget).
    - ["vswitch"]: flow-cache exact-tier and megaflow-tier hits over
      10k flows (smoke: 500) against the uncached classification scan,
      and a capped-LRU churn.
    - ["hotpath"]: {!Vswitch.Flow_cache.find_exact},
      {!Netcore.Fkey.hash}, the NIC placer's cached
      {!Rules.Rule_table.find} and {!Tor.Vrf.permits}, all zero budget.
    - ["engine"]: the event loop on one engine and across 17 shards
      (zero budget), then whole-datacenter events/sec ({!Dcscale}) at
      1/4/16/64 racks (smoke: 1/4) against a single-engine baseline.
    - ["workloads"]: load-generator flow launches, a 110k-live-flow
      fill (smoke: 4k) whose params record
      {!Workloads.Flowgen.state_words}, tenant churn events and
      diurnal curve samples; launches, churn and samples are
      budgeted. *)

val write_json : bench:string -> out_dir:string -> result list -> string
(** [write_json ~bench ~out_dir results] writes
    [out_dir/BENCH_<bench>.json] and returns the path written. *)
