(** The FasTrak measurement engine (§4.3.1).

    Polls a source of cumulative per-flow counters twice within a
    [poll_gap] window to compute pps and bps; repeats every epoch;
    every N epochs closes a control interval and emits a report whose
    entries carry the median pps/bps over the last N x M epoch samples
    and the number of epochs each aggregate was active.

    Flows are folded into aggregates by the [classify] function —
    typically per VM per application (<VM IP, L4 port, tenant>), the
    rule of thumb from the paper.

    State follows the live flows, on the engine's own clocks. Each
    epoch first calls [expire], which makes the source forget the
    flows that counted nothing since the previous epoch began (OVS
    expires idle datapath flows the same way), then polls twice. Each
    poll lists and snapshots only the flows the source still holds,
    so an epoch costs time and allocation per live flow, not per flow
    ever seen. Histories are fixed-size ring buffers (capacity
    N x M epochs) that record one sample per epoch in place. When a
    report finds an aggregate with no positive sample in its whole
    history window, the aggregate is dropped. If it returns, it starts
    a new record whose figures equal what the old one would have
    reported, because medians and [epochs_active] count only positive
    samples; only its [destinations] start afresh.

    A counter that jumps backwards between the two polls is clamped to
    a zero delta rather than reported as negative traffic, and each
    such event increments the [fastrak.me.counter_resets] metric. The
    stock sources ({!Vswitch.Flow_stats}) never do this: their
    counters only grow, and an expired flow reads as absent, not as
    reset. The clamp guards sources whose counters can restart. *)

type owner = {
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  direction : [ `Outgoing | `Incoming ];
}

type entry = {
  pattern : Netcore.Fkey.Pattern.t;  (** The aggregate. *)
  owner : owner;
  last_pps : float;
  last_bps : float;
  median_pps : float;
  median_bps : float;
  epochs_active : int;  (** Epochs with non-zero pps in the history. *)
  destinations : Netcore.Ipv4.t list;
      (** Destination VM addresses observed since the aggregate's
          record began — the tunnel mappings an offload must install,
          which the TOR controller accumulates across records. *)
}

type report = { interval_index : int; entries : entry list }

type t

val create :
  engine:Dcsim.Engine.t ->
  config:Config.t ->
  name:string ->
  poll:(unit -> (Netcore.Fkey.t * int * int) list) ->
  expire:(unit -> unit) ->
  classify:(Netcore.Fkey.t -> (Netcore.Fkey.Pattern.t * owner) option) ->
  t
(** [poll] returns cumulative (flow, packets, bytes). [expire] runs at
    the start of every epoch, before the first poll; it may drop flows
    whose counters have not moved since its previous call, and a
    dropped flow that resumes must count from zero
    ({!Vswitch.Flow_stats.expire}). [classify] returns the aggregate a
    flow belongs to, or [None] to ignore it. *)

val start : t -> unit
(** Begin the epoch schedule (first epoch starts one epoch period from
    now). Idempotent. *)

val stop : t -> unit
(** Halt the epoch schedule; an in-flight poll gap completes but no
    further epochs start. Restartable with {!start}. *)

val on_report : t -> (report -> unit) -> unit
(** Called at the end of every control interval. *)

val intervals_completed : t -> int
(** Total control intervals closed — equals the [interval_index] of the
    latest report. *)

val aggregate_count : t -> int
(** Aggregates the engine holds a history for: those with a positive
    sample in their history window at the last report, plus those
    first seen since. *)
