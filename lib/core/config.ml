module Simtime = Dcsim.Simtime

type t = {
  poll_gap : Simtime.span;
  epoch_period : Simtime.span;
  epochs_per_interval : int;
  history_intervals : int;
  overflow_bps : float;
  controller_latency : Simtime.span;
  max_offloads : int option;
  min_score : float;
  directive_timeout : Simtime.span;
  directive_attempts : int;
  dead_peer_failures : int;
  migration_timeout : Simtime.span;
  probe_interval : Simtime.span;
  lane_down_misses : int;
  lane_up_oks : int;
  tcam_audit_interval : Simtime.span option;
}

let default =
  {
    poll_gap = Simtime.span_ms 100.0;
    epoch_period = Simtime.span_sec 5.0;
    epochs_per_interval = 2;
    history_intervals = 3;
    overflow_bps = 50e6;
    controller_latency = Simtime.span_us 200.0;
    max_offloads = None;
    min_score = 100.0;
    directive_timeout = Simtime.span_ms 25.0;
    directive_attempts = 5;
    dead_peer_failures = 3;
    migration_timeout = Simtime.span_sec 30.0;
    probe_interval = Simtime.span_ms 20.0;
    lane_down_misses = 3;
    lane_up_oks = 5;
    tcam_audit_interval = None;
  }
