(** FasTrak controller configuration (§4.3.1, §5.2 defaults).

    The measurement cadence: pps/bps are measured over a [poll_gap]
    window ("twice within an interval of t = 100 ms"), repeated every
    [epoch_period] (T), for {!epochs_per_interval} epochs (N); every N
    epochs is one control interval. Medians are kept over the last
    {!history_intervals} (M) control intervals. *)

type t = {
  poll_gap : Dcsim.Simtime.span;  (** t: window over which pps is measured. *)
  epoch_period : Dcsim.Simtime.span;  (** T: epoch repetition period. *)
  min_score : float;
      (** Offload threshold: aggregates scoring below this never move
          to hardware (keeps trickle flows in software). *)
  tcam_audit_interval : Dcsim.Simtime.span option;
      (** Period of the anti-entropy audit sweep reconciling actual
          TCAM contents against controller intent (reinstall missing
          rules, remove orphans). [None] disables the audit. *)
}

val default : t
(** t = 100 ms, T = 5 s, min_score 100. The TCAM audit is off. *)

(** {1 Measurement and rate-split constants}

    Every experiment measures and splits rate limits at these values. *)

val epochs_per_interval : int
(** N: epochs per control interval, 2. *)

val history_intervals : int
(** M: control intervals of history the medians are kept over, 3. *)

val overflow_bps : float
(** O: slack FPS adds to each split rate limit, 50 Mb/s. *)

(** {1 Control-channel and recovery constants}

    Every experiment runs the controllers' channels and the recovery
    machinery (docs/FAULTS.md) at these values. *)

val controller_latency : Dcsim.Simtime.span
(** One-way latency of the controller control channels: 200 us. *)

val directive_timeout : Dcsim.Simtime.span
(** How long the TOR controller waits for a directive's ack before
    retransmitting: 25 ms, doubling on each retry (exponential
    backoff). *)

val directive_attempts : int
(** Transmissions per directive before it is declared failed: 5 (1
    original + 4 retries). *)

val probe_interval : Dcsim.Simtime.span
(** Period of the BFD-style liveness probes over each registered
    express lane: 20 ms. *)

val lane_down_misses : int
(** Consecutive probe intervals without a reply before a lane is
    declared down and its offloaded flows demoted to software: 3. *)

val lane_up_oks : int
(** Consecutive replying probe intervals before a down lane is
    declared healthy again (hysteresis against flapping): 5. *)

val dead_peer_failures : int
(** Consecutive failed directives after which a server's local
    controller is declared dead and its offloaded flows are demoted
    back to software: 3. *)

val migration_timeout : Dcsim.Simtime.span
(** How long a begun VM migration may stay unconfirmed before the rule
    manager aborts it and re-installs the returned rules at the source:
    30 s. *)
