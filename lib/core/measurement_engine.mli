(** The FasTrak measurement engine (§4.3.1).

    Polls a source of cumulative per-flow counters twice within a
    [poll_gap] window to compute pps and bps; repeats every epoch;
    every N epochs closes a control interval and emits a report whose
    entries carry the median pps/bps over the last N x M epoch samples
    and the number of epochs each aggregate was active.

    Flows are folded into aggregates by the [classify] function —
    typically per VM per application (<VM IP, L4 port, tenant>), the
    rule of thumb from the paper.

    Histories are fixed-size ring buffers (capacity N x M epochs), so
    an epoch costs O(1) per aggregate with no allocation — the
    hot-path budget that keeps tens of thousands of aggregates per
    rack affordable. A counter that jumps backwards between the two
    polls (the flow was evicted from the exact-match cache and
    re-created) is clamped to a zero delta rather than reported as
    negative traffic; each such event increments the
    [fastrak.me.counter_resets] metric. *)

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
      (** Destination VM addresses observed for this aggregate —
          exactly the tunnel mappings an offload must install. *)
}

type report = { interval_index : int; entries : entry list }

type t

val create :
  engine:Dcsim.Engine.t ->
  config:Config.t ->
  name:string ->
  poll:(unit -> (Netcore.Fkey.t * int * int) list) ->
  classify:(Netcore.Fkey.t -> (Netcore.Fkey.Pattern.t * owner) option) ->
  t
(** [poll] returns cumulative (flow, packets, bytes). [classify]
    returns the aggregate a flow belongs to, or [None] to ignore it. *)

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
