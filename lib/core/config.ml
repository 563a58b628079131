module Simtime = Dcsim.Simtime

type t = {
  poll_gap : Simtime.span;
  epoch_period : Simtime.span;
  history_intervals : int;
  min_score : float;
  dead_peer_failures : int;
  migration_timeout : Simtime.span;
  tcam_audit_interval : Simtime.span option;
}

let default =
  {
    poll_gap = Simtime.span_ms 100.0;
    epoch_period = Simtime.span_sec 5.0;
    history_intervals = 3;
    min_score = 100.0;
    dead_peer_failures = 3;
    migration_timeout = Simtime.span_sec 30.0;
    tcam_audit_interval = None;
  }

let epochs_per_interval = 2
let overflow_bps = 50e6
let controller_latency = Simtime.span_us 200.0
let directive_timeout = Simtime.span_ms 25.0
let directive_attempts = 5
let probe_interval = Simtime.span_ms 20.0
let lane_down_misses = 3
let lane_up_oks = 5
