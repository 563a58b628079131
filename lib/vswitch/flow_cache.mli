(** Two-tier datapath flow cache (OVS kernel-cache model).

    An exact-match first tier in front of a wildcard {e megaflow}
    second tier keyed on {!Netcore.Fkey.Pattern}. Megaflow masks come
    from {!Rules.Policy.classify_masked} — the union of fields the
    deciding scan examined — so a single entry absorbs every flow that
    agrees on those fields (e.g. all flows of a tenant pair under an
    allow-all ACL), which is what keeps steady-state cost independent
    of both rule-set size and flow count.

    Coherence: every operation first compares the policy's
    {!Rules.Policy.generation} against the generation captured at the
    last flush and drops everything on mismatch, so a rule mutation
    takes effect on the very next packet. A periodic {!revalidate}
    sweep (driven from the engine clock by {!Ovs}) additionally evicts
    idle entries and re-checks megaflow verdicts against fresh
    classifications of their witness flows.

    Both tiers are capacity-bounded with O(1) LRU eviction. Occupancy
    is exported on the [vswitch.cache.{exact,megaflow}_entries] gauges;
    hits/misses/evictions/invalidations on the matching counters; and
    [cache_hit]/[cache_miss]/[cache_invalidate] trace events feed the
    [cache_coherence] monitor (see docs/METRICS.md). *)

type config = {
  exact_capacity : int;  (** Max exact-tier entries; 0 disables the tier. *)
  megaflow_capacity : int;  (** Max megaflow entries; 0 disables the tier. *)
  idle_timeout : Dcsim.Simtime.span;
      (** Entries unused for this long are evicted by the revalidator. *)
  revalidate_period : Dcsim.Simtime.span;
      (** Cadence at which {!Ovs} runs the revalidator sweep. *)
}

val default_config : config ref
(** Applied by {!create} when no explicit config is given; the CLI's
    [--cache-capacity] flag overrides it process-wide. *)

type t

val create : ?config:config -> name:string -> policy:Rules.Policy.t -> unit -> t
(** One cache per VIF; [name] labels its trace events (["vif3"]). *)

val config : t -> config

type tier = Exact | Megaflow

val lookup : t -> Netcore.Fkey.t -> now:Dcsim.Simtime.t -> (Rules.Policy.verdict * tier) option
(** Serve a verdict from the cache, [None] on miss (the caller then
    pays the upcall and calls {!install}). A megaflow hit promotes the
    flow into the exact tier. The same as {!find_exact}, then
    {!lookup_wild} on an exact-tier miss. *)

val find_exact : t -> Netcore.Fkey.t -> now:Dcsim.Simtime.t -> Rules.Policy.verdict
(** Exact-tier probe only — the steady-state per-packet path. A hit
    (probe, hit accounting, LRU touch, disabled-sink trace guard)
    allocates nothing; see the [hotpath/cache-hit-exact] scenario in
    BENCH_hotpath.json and the [@alloc-check] alias that enforces the
    zero-allocation bar.
    @raise Not_found on an exact-tier miss (fall back to
    {!lookup_wild}). *)

val lookup_wild :
  t -> Netcore.Fkey.t -> now:Dcsim.Simtime.t -> Rules.Policy.verdict option
(** Wildcard-tier probe, for callers that already took an exact-tier
    {!find_exact} miss: counts the megaflow hit (promoting the flow
    into the exact tier) or the overall miss. Calling this
    without a preceding exact miss undercounts exact-tier traffic. *)

val install : t -> Netcore.Fkey.t -> now:Dcsim.Simtime.t -> Rules.Policy.verdict
(** Classify the flow against the live policy (via
    {!Rules.Policy.classify_masked}) and install the result in both
    tiers; returns the verdict. This is the upcall's slow path. *)

val invalidate_flow :
  t -> Netcore.Fkey.t -> now:Dcsim.Simtime.t -> reason:string -> int
(** Drop the exact entry and every megaflow entry covering the flow;
    returns the number of entries dropped. Hooked to
    [Ovs.set_flow_blocked] (offload/demote block and unblock paths). *)

val revalidate : t -> now:Dcsim.Simtime.t -> reason:string -> int
(** One revalidator pass: flush if the policy generation moved, evict
    idle entries, re-check megaflow verdicts against their witness
    flows. Returns entries dropped. Called periodically by {!Ovs} and
    directly on FPS limit re-splits and VM migration. *)

(** {1 Introspection (tests, benches, gauges)} *)

val exact_count : t -> int
val megaflow_count : t -> int
val is_empty : t -> bool
val mem_exact : t -> Netcore.Fkey.t -> bool
(** Membership without touching LRU order (test hook). *)

val exact_hits : t -> int
val megaflow_hits : t -> int
val misses : t -> int

val invalidations : t -> int
(** Entries dropped because they were (potentially) stale. *)

val evictions : t -> int
(** Entries dropped by capacity or idle pressure. *)
