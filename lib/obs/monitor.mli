(** Online invariant monitors over the trace stream.

    A monitor watches every {!Trace.event} as it is emitted and checks
    the control plane's structural invariants on the fly:

    - {b tcam_capacity} — TCAM occupancy reported by install/evict
      events stays within [0, capacity] and entry counts are
      non-negative.
    - {b fps_conservation} — an FPS re-split hands out at most the
      contracted limit plus twice the overflow allowance
      ([soft + hard <= total + 2 O], the bound [lib/core/fps.ml]
      guarantees), and never a negative or NaN rate.
    - {b seq_monotonic} — freshly issued directives ({!Trace.Rule_pushed})
      carry strictly increasing sequence numbers per server.
      Unreconciled-demote replays reuse their original seq by design and
      are not announced as [Rule_pushed], so they cannot trip this.
    - {b span_pairing} — every {!Trace.Span_end} closes a span that
      began, and no span begins twice. In particular an install span
      ending ["installed"] without having opened means the install state
      machine skipped Pending.
    - {b migration_order} — per VM, two-phase migration stages are
      well-ordered: Prepare, then exactly one of Commit or Abort.
    - {b cache_coherence} — a verdict served from the datapath flow
      cache equals the fresh policy evaluation carried in the same
      {!Trace.Cache_hit} event (emitters compute it at hit time), and
      invalidation events never report negative counts.
    - {b no_blackhole} — every flow with outstanding demand makes
      delivery progress within a bounded window: if a flow's
      {!Trace.Flow_progress} heartbeats show [sent] still growing while
      [acked] has not moved for longer than the window, the flow is
      blackholing — failover should have moved it to a working path.
      Flows with no new demand are merely idle and never violate.

    Violations are counted per monitor and recorded with their sim time
    and a human-readable detail. In [Warn] mode the run continues and
    the CLI prints a report at the end; in [Strict] mode the first
    violation raises {!Strict_violation}, which the CLI turns into a
    non-zero exit.

    A monitor is a pure consumer: attaching one (via {!Trace.use_tee})
    never changes what the simulation computes, only what is checked. *)

type mode = Warn | Strict

type violation = {
  at : Dcsim.Simtime.t;
  monitor : string;  (** Monitor name, e.g. ["tcam_capacity"]. *)
  detail : string;  (** Human-readable description of the breach. *)
  context : (Dcsim.Simtime.t * Trace.event) list;
      (** The last (at most 8) events the installed {!Obs.Flight}
          recorder held when the breach was recorded, oldest first;
          empty when no recorder is installed. *)
}

exception Strict_violation of violation
(** Raised by a [Strict] monitor on its first violation, out of
    {!observe} (and so out of [Trace.emit] at the offending site). *)

type t

val create : ?mode:mode -> unit -> t
(** A fresh monitor with empty state; [mode] defaults to [Warn]. Its
    [no_blackhole] check allows a flow with demand 1 s without delivery
    progress — comfortably above the worst-case lane-failover time, so
    a healthy failover never trips it. *)

val attach : t -> unit
(** Subscribe to the live trace stream in front of the current sink
    ({!Trace.use_tee}): every subsequent event is checked first, then
    forwarded. [Trace.disable] detaches it together with the sink. *)

val attached : unit -> bool
(** True while some monitor {!attach}ed is still in the live tee chain
    (no [Trace.disable] since). Emitters that {e schedule extra work}
    solely to feed an invariant checker — the stream workloads'
    {!Trace.Flow_progress} heartbeats for [no_blackhole] — gate on
    this rather than on [Trace.enabled], so a trace file or flight
    recorder alone never changes what the simulation computes. *)

val observe : t -> Dcsim.Simtime.t -> Trace.event -> unit
(** Check one event. Exposed so tests and offline tooling can drive a
    monitor over a replayed JSONL trace without a live run. *)

val violations : t -> violation list
(** Every recorded violation, oldest first. *)

val counts : t -> (string * int) list
(** Per-monitor violation counts, sorted by monitor name; monitors with
    zero violations are omitted. *)

val total : t -> int
val events_checked : t -> int

val breach : t -> at:Dcsim.Simtime.t -> monitor:string -> string -> unit
(** Record an externally detected violation (the {!Obs.Slo} scoreboard's
    end-of-window check uses this) through the same counting, context
    and strict-raise path as trace-driven checks. *)

val violation_to_string : violation -> string

val context_to_string : violation -> string
(** The violation's embedded flight-recorder context as indented JSONL
    lines (empty string when there is none). {!report} appends it after
    each violation line. *)

val report : t -> string
(** Multi-line summary: events checked, per-monitor counts, and each
    violation. One line when clean. *)
