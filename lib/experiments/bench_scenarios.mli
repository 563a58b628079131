(** Named control-plane benchmark scenarios.

    Each scenario exercises one hot path of the measure→score→decide→
    install pipeline at rack-scale flow counts and reports throughput
    plus allocation pressure. The harness ([bench/main.exe bench])
    writes one machine-readable [BENCH_<name>.json] per scenario group
    so the repository accumulates a performance trajectory; the
    [@bench-smoke] dune alias runs every scenario at a tiny size on
    each [dune runtest] so the harness cannot rot. Schema and scenario
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
}

val run_decision : smoke:bool -> result list
(** Decision-engine knapsack at 1k/10k/50k candidates (smoke: 200),
    with ~20% of the candidate set currently offloaded. Sizes that
    keep the quadratic baseline affordable also time
    {!Fastrak.Decision_engine.decide_list_baseline}. *)

val run_measurement : smoke:bool -> result list
(** Measurement-engine epochs over 10k concurrent aggregates (smoke:
    200): two counter polls per epoch, per-aggregate ring-buffer
    updates, and interval report building with medians. *)

val run_eventqueue : smoke:bool -> result list
(** Raw event-queue churn (smoke-scaled): push/pop ordering load, a
    cancel-heavy variant where 90% of pushed events are cancelled (each
    removed at once), and timer re-arming: 1024 armed timers, each op
    cancelling one and pushing it again later. *)

val run_obs : smoke:bool -> result list
(** Observability emission overhead: one faithful trace emission site
    (guard, construct, emit) priced with tracing off (the
    one-load-one-branch contract), with an in-process callback sink,
    and with the JSONL sink writing to [/dev/null]; plus
    {!Obs.Span.start}/{!Obs.Span.finish} pairs under a callback sink
    and {!Obs.Timeseries.observe} (three P² estimators per sample). *)

val run_vswitch : smoke:bool -> result list
(** Datapath flow-cache lookups over 10k distinct flows (smoke: 500)
    against a 256-rule policy: exact-tier hits, megaflow-tier hits
    (exact tier disabled), and a capped-LRU churn scenario where every
    megaflow hit promotes into an exact tier sized an order of
    magnitude below the flow count. [baseline_ns_per_op] on the tier
    scenarios is the uncached full classification scan — the cost every
    lookup would pay without the cache. *)

val run_hotpath : smoke:bool -> result list
(** Per-packet steady-state primitives: exact-tier cache hits
    ({!Vswitch.Flow_cache.find_exact}), {!Netcore.Fkey.hash}, the NIC
    flow placer's cached {!Rules.Rule_table.find} and the ToR's
    {!Tor.Vrf.classify}. Every scenario must report
    [minor_words_per_op = 0.0]; {!alloc_check} enforces this. *)

val run_workloads : smoke:bool -> result list
(** Load-generator benchmarks: [loadgen/flow-launch] (flows launched
    and drained through a discarding VM, flows/sec plus minor
    words/launch), [loadgen/<N>k-live] (two generators filled to ~110k
    concurrent flows — params record {!Workloads.Flowgen.state_words}
    at quarter and full fill, the flat-memory evidence),
    [loadgen/churn-event] (two-phase begin+commit VM migration per
    op), and [loadgen/curve-sample] (diurnal curve evaluation).
    Writes [BENCH_workloads.json] via {!write_json}. *)

val alloc_check : unit -> (string * float * float option) list
(** Run the allocation regression gate (smoke sizes — allocation
    counts are deterministic): one entry per budget, (scenario, budget
    in minor words/op, measured minor words/op). The measurement is
    [None] when no scenario of that name ran — a stale budget, which
    fails the gate like an overrun does. Zero-bar scenarios use a 0.05
    epsilon for the timing loop's own [Sys.time] float boxing; the
    decide bar is 10% of the committed pre-optimisation
    BENCH_decision.json number. Backs the [@alloc-check] tier-1
    alias. *)

val run_engine : smoke:bool -> result list
(** Whole-datacenter events/sec on the sharded engine ({!Dcscale}) at
    1/4/16/64 racks (smoke: 1/4), one op per simulation event.
    [baseline_ns_per_op] is the identical topology and workload on a
    single engine, so the ratio prices the conservative-lookahead
    windowing overhead. *)

val write_json : bench:string -> out_dir:string -> result list -> string
(** [write_json ~bench ~out_dir results] writes
    [out_dir/BENCH_<bench>.json] and returns the path written. *)
