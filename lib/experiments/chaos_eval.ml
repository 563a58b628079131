module Simtime = Dcsim.Simtime
module Fkey = Netcore.Fkey

type result = {
  schedule : string;
  run_seconds : float;
  drain_seconds : float;
  drops : int;
  dups : int;
  reorders : int;
  retries : int;
  failures : int;
  peer_deaths : int;
  promotions : int;
  demotions : int;
  tor_offloaded : Fkey.Pattern.t list;
  local_offloaded : Fkey.Pattern.t list;
  unacked : int;
  reconciled : bool;
  rtt : Obs.Timeseries.quantiles;
      (* directive send->ack round trip under this fault profile, µs *)
}

(* Seconds under load, then seconds quiesced. *)
let seconds = 4.0
let drain = 3.0

let run ?(schedule = "lossy") () =
  let sched =
    match Faults.Schedule.profile schedule with
    | Ok s -> s
    | Error msg -> invalid_arg ("chaos: bad fault schedule: " ^ msg)
  in
  let tb = Testbed.create ~server_count:3 () in
  let client_vm =
    Testbed.add_vm tb (Testbed.vm_spec ~server:0 ~name:"chaos-c" ~ip_last_octet:1 ())
  in
  let server_vm =
    Testbed.add_vm tb (Testbed.vm_spec ~server:1 ~name:"chaos-s" ~ip_last_octet:2 ())
  in
  Testbed.connect_tunnels tb;
  Workloads.Transactions.Server.install ~vm:server_vm.Host.Server.vm ~port:9000
    ~response_size:64 ();
  let client =
    Workloads.Transactions.Client.start ~engine:tb.Testbed.engine
      ~vm:client_vm.Host.Server.vm
      {
        Workloads.Transactions.Client.servers =
          [ (Host.Vm.ip server_vm.Host.Server.vm, 9000) ];
        connections = 2;
        outstanding = 8;
        request_size = 64;
        total_requests = None;
        src_port_base = 50_000;
      }
  in
  let config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
      poll_gap = Simtime.span_ms 40.0;
    }
  in
  let rm =
    Fastrak.Rule_manager.create ~engine:tb.Testbed.engine ~config
      ~tor:tb.Testbed.tor
      ~servers:(Array.to_list tb.Testbed.servers)
      ~faults:sched ()
  in
  let value = Metric_snapshot.counter_delta ~before:(Obs.Metrics.snapshot ()) in
  (* Directive RTT percentiles come from Obs.Timeseries: restart the
     estimators so this run's quantiles reflect only this fault profile,
     and collect even when the CLI did not ask for --timeseries-out. *)
  let ts_was_on = Obs.Timeseries.enabled () in
  Obs.Timeseries.reset_series ();
  Obs.Timeseries.enable ();
  Fastrak.Rule_manager.start rm;
  Testbed.run_for tb ~seconds;
  (* Quiesce: stop the offered load and let the control plane converge
     — retries drain, stale offloads age out and demote, unreconciled
     demotes replay on subsequent report contacts. *)
  Workloads.Transactions.Client.stop client;
  Testbed.run_for tb ~seconds:drain;
  Fastrak.Rule_manager.settle [ rm ] ~advance:(fun step ->
      Testbed.run_for tb ~seconds:(Simtime.span_to_sec step));
  let rtt =
    Obs.Timeseries.quantiles (Obs.Timeseries.series "fastrak.directive_rtt_us")
  in
  if not ts_was_on then Obs.Timeseries.disable ();
  let tor_ctrl = Fastrak.Rule_manager.tor_controller rm in
  {
    schedule = Faults.Schedule.to_string sched;
    run_seconds = seconds;
    drain_seconds = drain;
    drops = value "fabric.channel.drops";
    dups = value "fabric.channel.dups";
    reorders = value "fabric.channel.reorders";
    retries = value "fastrak.directive_retries";
    failures = value "fastrak.directive_failures";
    peer_deaths = value "fastrak.peer_deaths";
    promotions = value "fastrak.promotions";
    demotions = value "fastrak.demotions";
    tor_offloaded = Fastrak.Tor_controller.offloaded_patterns tor_ctrl;
    local_offloaded = Fastrak.Rule_manager.server_offloaded_patterns rm;
    unacked = Fastrak.Tor_controller.unacked_directives tor_ctrl;
    reconciled = Fastrak.Rule_manager.views_reconciled rm;
    rtt;
  }

let print r =
  Tabular.print_title "Chaos: control plane under injected faults";
  Printf.printf "fault schedule: %s  (%.1fs under load + %.1fs drain)\n"
    r.schedule r.run_seconds r.drain_seconds;
  Printf.printf
    "channel faults injected: %d drops, %d duplicates, %d reordered\n" r.drops
    r.dups r.reorders;
  Printf.printf
    "protocol: %d retransmissions, %d exhausted directives, %d peer deaths\n"
    r.retries r.failures r.peer_deaths;
  Printf.printf "decisions applied: %d promotions, %d demotions\n" r.promotions
    r.demotions;
  if r.rtt.Obs.Timeseries.count > 0 then
    Printf.printf
      "directive RTT (us): p50=%.1f p90=%.1f p99=%.1f  (mean %.1f over %d acks)\n"
      r.rtt.Obs.Timeseries.p50 r.rtt.Obs.Timeseries.p90
      r.rtt.Obs.Timeseries.p99 r.rtt.Obs.Timeseries.mean
      r.rtt.Obs.Timeseries.count;
  Printf.printf
    "after drain: %d TOR-side / %d server-side offloads, %d unacked -> %s\n"
    (List.length r.tor_offloaded)
    (List.length r.local_offloaded)
    r.unacked
    (if r.reconciled then "views reconciled" else "NOT RECONCILED")
