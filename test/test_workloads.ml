(* Tests for the workload generators and a few end-to-end shape
   invariants from the paper's evaluation. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let pair_testbed ?(config = Compute.Cost_params.baseline) () =
  let tb = Experiments.Testbed.create ~server_count:2 ~config () in
  let a =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"a" ~ip_last_octet:1 ())
  in
  let b =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"b" ~ip_last_octet:2 ())
  in
  (tb, a, b)

let test_transactions_complete () =
  let tb, a, b = pair_testbed () in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:256 ();
  let c =
    Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        Workloads.Transactions.Client.servers = [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
        connections = 2;
        outstanding = 4;
        request_size = 64;
        total_requests = Some 500;
        src_port_base = 40000;
      }
  in
  let finished = ref false in
  Workloads.Transactions.Client.on_finish c (fun () -> finished := true);
  Experiments.Testbed.run_for tb ~seconds:2.0;
  checki "completed all" 500 (Workloads.Transactions.Client.completed c);
  checkb "finish callback" true !finished;
  checkb "finish time set" true (Workloads.Transactions.Client.finish_time c <> None);
  checkb "latency measured" true (Workloads.Transactions.Client.mean_latency_us c > 10.0);
  checkb "p99 >= mean" true
    (Workloads.Transactions.Client.p99_latency_us c
    >= Workloads.Transactions.Client.mean_latency_us c)

let test_transactions_retry_lost_requests () =
  let tb, a, b = pair_testbed () in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  let f_block = ref None in
  let c =
    Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        Workloads.Transactions.Client.servers = [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
        connections = 1;
        outstanding = 2;
        request_size = 64;
        total_requests = Some 5000;
        src_port_base = 41000;
      }
  in
  ignore f_block;
  (* Briefly blackhole the flow mid-run: some requests are lost, the
     watchdog re-issues them, and the run still completes. *)
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  ignore
    (Engine.after tb.Experiments.Testbed.engine (Simtime.span_ms 50.0) (fun () ->
         List.iter
           (fun (flow, _, _) -> Vswitch.Ovs.set_flow_blocked ovs flow true)
           (Vswitch.Ovs.active_flows ovs)));
  ignore
    (Engine.after tb.Experiments.Testbed.engine (Simtime.span_ms 150.0) (fun () ->
         List.iter
           (fun (flow, _, _) -> Vswitch.Ovs.set_flow_blocked ovs flow false)
           (Vswitch.Ovs.active_flows ovs)));
  Experiments.Testbed.run_for tb ~seconds:5.0;
  checki "completed despite loss" 5000 (Workloads.Transactions.Client.completed c);
  checkb "retries recorded" true (Workloads.Transactions.Client.retries c > 0)

let test_stream_goodput_measured () =
  let tb, a, b = pair_testbed () in
  Workloads.Stream.install_sink ~vm:b.Host.Server.vm ~port:5001 ();
  let s =
    Workloads.Stream.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        (Workloads.Stream.default_config ~dst_ip:(Host.Vm.ip b.Host.Server.vm)) with
        Workloads.Stream.dst_port = 5001;
      }
  in
  Experiments.Testbed.run_for tb ~seconds:0.5;
  let g =
    Workloads.Stream.goodput_gbps s ~now:(Engine.now tb.Experiments.Testbed.engine)
  in
  checkb "several Gb/s" true (g > 1.0);
  checkb "bytes acked grow" true (Workloads.Stream.bytes_acked s > 1_000_000)

let test_stream_total_bytes_stops () =
  let tb, a, b = pair_testbed () in
  Workloads.Stream.install_sink ~vm:b.Host.Server.vm ~port:5001 ();
  let s =
    Workloads.Stream.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        (Workloads.Stream.default_config ~dst_ip:(Host.Vm.ip b.Host.Server.vm)) with
        Workloads.Stream.dst_port = 5001;
        total_bytes = Some 320_000;
      }
  in
  Experiments.Testbed.run_for tb ~seconds:1.0;
  checkb "finished" true (Workloads.Stream.finished s);
  checki "sent exactly the budget" 320_000 (Workloads.Stream.bytes_sent s)

let test_scp_paced_low_pps () =
  let tb, a, b = pair_testbed () in
  Workloads.Background.install_scp_sink ~vm:b.Host.Server.vm;
  let scp =
    Workloads.Background.scp ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
  in
  Experiments.Testbed.run_for tb ~seconds:2.0;
  let stream = Workloads.Background.scp_stream scp in
  let msgs = Workloads.Stream.bytes_sent stream / 1448 in
  let pps = float_of_int msgs /. 2.0 in
  (* §6.2.1: ~135 pps outgoing. *)
  checkb "~135 pps" true (Float.abs (pps -. 135.0) < 15.0)

(* 500 launches 2 ms apart over one second. 80% of launches go to the
   4 hot destination services and the rest to 64 cold ones, so in the
   OVS flow table a hot service must carry many times the packets of a
   cold one. *)
let test_flowgen_locality () =
  let tb, a, b = pair_testbed () in
  Workloads.Flowgen.install_sinks ~vm:b.Host.Server.vm ~dst_port_base:30000;
  let engine = tb.Experiments.Testbed.engine in
  let g =
    Workloads.Flowgen.create ~engine ~vm:a.Host.Server.vm
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
      ~dst_port_base:30000 Workloads.Flowgen.default_config
  in
  for i = 0 to 499 do
    ignore
      (Engine.after engine
         (Simtime.span_us (2000.0 *. float_of_int i))
         (fun () -> Workloads.Flowgen.launch g))
  done;
  Experiments.Testbed.run_for tb ~seconds:1.0;
  checki "every launch started" 500 (Workloads.Flowgen.flows_started g);
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  let hot, cold =
    List.fold_left
      (fun (h, c) (flow, pkts, _) ->
        let port = flow.Netcore.Fkey.dst_port in
        if port < 30000 || port >= 30068 then (h, c)
        else if port < 30004 then (h + pkts, c)
        else (h, c + pkts))
      (0, 0) (Vswitch.Ovs.active_flows ovs)
  in
  checkb "cold services saw traffic" true (cold > 0);
  (* Packets per destination service: the hot set's 4 against the cold
     set's 64. *)
  checkb "a hot service carries 10x a cold one" true (hot * 64 > 10 * cold * 4)

(* --- Port space and source-port aliasing (regression) --- *)

let test_portspace_basics () =
  let ps = Workloads.Portspace.create () in
  let n = 65536 - 1024 in
  checki "capacity" n (Workloads.Portspace.capacity ps);
  let drawn = List.init n (fun _ -> Workloads.Portspace.alloc ps) in
  let ports = List.filter_map Fun.id drawn in
  checki "every port allocated" n (List.length ports);
  checki "all distinct" n (List.length (List.sort_uniq compare ports));
  checkb "non-privileged" true
    (List.for_all (fun p -> p >= 1024 && p < 65536) ports);
  checkb "exhausted -> None" true (Workloads.Portspace.alloc ps = None);
  checki "in_use tracks" n (Workloads.Portspace.in_use ps);
  Workloads.Portspace.release ps 30005;
  Workloads.Portspace.release ps 30005;
  checki "release idempotent" (n - 1) (Workloads.Portspace.in_use ps);
  checkb "freed port no longer live" true
    (not (Workloads.Portspace.is_live ps 30005));
  (match Workloads.Portspace.alloc ps with
  | Some p -> checki "recycles the freed port" 30005 p
  | None -> Alcotest.fail "expected the freed port back");
  checki "full again" n (Workloads.Portspace.in_use ps)

(* Regression for the source-port wraparound: the generator used to
   stamp src ports from a counter folded into a 10k window, so the
   10_001st concurrent flow aliased the 1st flow's Fkey — merging
   their OVS flow entries, ME histories and cache verdicts. With the
   port-space allocator every live flow to one destination service
   must own a distinct entry in the source vswitch, even past 10k
   concurrent. *)
let test_flowgen_no_src_port_aliasing () =
  let tb, a, b = pair_testbed () in
  let config =
    {
      Workloads.Flowgen.default_config with
      (* Multi-message flows with hour-long pacing: all stay live. *)
      Workloads.Flowgen.message_gap = Simtime.span_sec 3600.0;
    }
  in
  Workloads.Flowgen.install_sinks ~vm:b.Host.Server.vm ~dst_port_base:30000;
  let g =
    Workloads.Flowgen.create ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
      ~dst_port_base:30000 config
  in
  let n = 12_000 in
  for _ = 1 to n do
    Workloads.Flowgen.launch_to g ~dst_port:30000 ~size_bytes:(10 * 1448)
  done;
  Experiments.Testbed.run_for tb ~seconds:2.0;
  checki "all launched flows live" n (Workloads.Flowgen.live_flows g);
  checki "none shed" 0 (Workloads.Flowgen.flows_skipped g);
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  let entries = Vswitch.Ovs.active_flows ovs in
  checki "one vswitch entry per live flow (no Fkey aliasing)" n
    (List.length entries);
  let src_ports =
    List.sort_uniq compare
      (List.map (fun (f, _, _) -> f.Netcore.Fkey.src_port) entries)
  in
  checki "src ports all distinct" n (List.length src_ports)

(* --- Stream ack accounting (regression) --- *)

(* Regression for the tail-ack bug: with a message count not divisible
   by [ack_every] the sink never acknowledged the final partial batch,
   so a finite stream finished with [bytes_acked < bytes_sent] forever.
   The sink must ack the fin-marked last message unconditionally. *)
let test_stream_tail_acked () =
  let tb, a, b = pair_testbed () in
  Workloads.Stream.install_sink ~vm:b.Host.Server.vm ~port:5001 ();
  let base = Workloads.Stream.default_config ~dst_ip:(Host.Vm.ip b.Host.Server.vm) in
  (* 7 messages with ack_every = 4: the tail batch of 3 is acked only
     by the fin path. *)
  let s =
    Workloads.Stream.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        base with
        Workloads.Stream.dst_port = 5001;
        total_bytes = Some (7 * base.Workloads.Stream.message_size);
      }
  in
  Experiments.Testbed.run_for tb ~seconds:1.0;
  checkb "finished" true (Workloads.Stream.finished s);
  checki "sent the whole budget" (7 * base.Workloads.Stream.message_size)
    (Workloads.Stream.bytes_sent s);
  checki "every sent byte acked (tail batch included)"
    (Workloads.Stream.bytes_sent s)
    (Workloads.Stream.bytes_acked s)

(* The cumulative-count acks must never credit bytes the sender has
   not sent (the old fixed-increment credit could). *)
let test_stream_ack_never_exceeds_sent () =
  let tb, a, b = pair_testbed () in
  Workloads.Stream.install_sink ~vm:b.Host.Server.vm ~port:5002 ();
  let s =
    Workloads.Stream.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        (Workloads.Stream.default_config ~dst_ip:(Host.Vm.ip b.Host.Server.vm)) with
        Workloads.Stream.dst_port = 5002;
      }
  in
  (* Sample the invariant repeatedly mid-flight. *)
  for i = 1 to 20 do
    ignore
      (Engine.after tb.Experiments.Testbed.engine
         (Simtime.span_ms (float_of_int i *. 10.0))
         (fun () ->
           checkb "acked <= sent" true
             (Workloads.Stream.bytes_acked s <= Workloads.Stream.bytes_sent s)))
  done;
  Experiments.Testbed.run_for tb ~seconds:0.25;
  checkb "acked grows" true (Workloads.Stream.bytes_acked s > 0);
  Workloads.Stream.stop s

(* --- Loadgen distribution and churn properties --- *)

let prop_pareto_mean_converges =
  QCheck2.Test.make ~name:"pareto sample mean converges to configured mean"
    ~count:20
    QCheck2.Gen.(pair (int_range 1 1_000_000) (float_range 2.2 3.5))
    (fun (seed, shape) ->
      let rng = Dcsim.Rng.create ~seed in
      let mean = 50_000.0 in
      let scale = mean *. (shape -. 1.0) /. shape in
      let n = 30_000 in
      let sum = ref 0.0 in
      for _ = 1 to n do
        sum := !sum +. Dcsim.Rng.pareto rng ~shape ~scale
      done;
      let sample_mean = !sum /. float_of_int n in
      Float.abs (sample_mean -. mean) /. mean < 0.2)

(* The diurnal curve must integrate to 1 over a day, whatever its
   shape — a modulated day offers exactly the configured volume. *)
let prop_curve_mean_one =
  let curve_gen =
    QCheck2.Gen.(
      oneof
        [
          return Workloads.Loadgen.Flat;
          map
            (fun trough -> Workloads.Loadgen.Sinusoid { trough })
            (float_range 0.0 1.0);
        ])
  in
  QCheck2.Test.make ~name:"diurnal curve integrates to the daily volume"
    ~count:50 curve_gen
    (fun curve ->
      let n = 20_000 in
      let sum = ref 0.0 in
      for i = 0 to n - 1 do
        sum :=
          !sum
          +. Workloads.Loadgen.curve_multiplier curve
               ~frac:((float_of_int i +. 0.5) /. float_of_int n)
      done;
      let mean = !sum /. float_of_int n in
      let peak = Workloads.Loadgen.curve_peak curve in
      Float.abs (mean -. 1.0) < 0.02
      && peak >= mean -. 0.02
      && peak > 0.0)

(* Tenant churn through the two-phase machinery must leave nothing
   behind: however many cycles run, every migration ends committed,
   and the rack's TCAM holds exactly what it held before the churn —
   no leaked rule budget. *)
let prop_churn_fully_departed =
  QCheck2.Test.make ~name:"churned tenants end fully departed" ~count:15
    QCheck2.Gen.(pair (int_range 1 25) (int_range 1 1_000_000))
    (fun (cycles, seed) ->
      let engine = Engine.create ~seed () in
      let tb = Experiments.Testbed.create ~engine ~server_count:2 () in
      let attached =
        Experiments.Testbed.add_vm tb
          (Experiments.Testbed.vm_spec ~server:0 ~name:"churn" ~ip_last_octet:1
             ())
      in
      let rm =
        Fastrak.Rule_manager.create ~engine ~config:Fastrak.Config.default
          ~tor:tb.Experiments.Testbed.tor
          ~servers:(Array.to_list tb.Experiments.Testbed.servers)
          ()
      in
      let tcam = Tor.Tor_switch.tcam tb.Experiments.Testbed.tor in
      let used_before = Tor.Tcam.used tcam in
      let vm_ip = Host.Vm.ip attached.Host.Server.vm in
      let tenant = Host.Vm.tenant attached.Host.Server.vm in
      let all_committed = ref true in
      for i = 1 to cycles do
        let mg = Fastrak.Rule_manager.begin_vm_migration rm ~tenant ~vm_ip in
        let server =
          Host.Server.name tb.Experiments.Testbed.servers.(i mod 2)
        in
        if not (Fastrak.Rule_manager.commit_vm_migration rm mg ~new_server:server)
        then all_committed := false;
        if Fastrak.Rule_manager.migration_state mg <> `Committed then
          all_committed := false
      done;
      Engine.run engine;
      !all_committed
      && Tor.Tcam.used tcam = used_before
      && Tor.Tcam.used tcam <= Tor.Tcam.capacity tcam)

(* --- Paper-shape invariants (fast versions of the benches) --- *)

let burst_tps path =
  let tb, a, b = pair_testbed () in
  if path = `Vf then begin
    Experiments.Testbed.force_path_vf tb a;
    Experiments.Testbed.force_path_vf tb b
  end;
  Workloads.Netperf.install_rr_server ~vm:b.Host.Server.vm ~response_size:64;
  let c =
    Workloads.Netperf.burst_rr ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
      ~size:64
  in
  Experiments.Testbed.run_for tb ~seconds:0.4;
  Workloads.Transactions.Client.reset_measurement c
    ~now:(Engine.now tb.Experiments.Testbed.engine);
  Experiments.Testbed.run_for tb ~seconds:0.6;
  Workloads.Transactions.Client.tps c ~now:(Engine.now tb.Experiments.Testbed.engine)

let test_shape_burst_tps_ratio () =
  let vif = burst_tps `Vif and vf = burst_tps `Vf in
  let ratio = vf /. vif in
  (* Paper: ~60K vs ~34K, i.e. ~1.76x. *)
  checkb "sr-iov roughly doubles burst TPS" true (ratio > 1.4 && ratio < 2.3);
  checkb "vif in the 30-40K band" true (vif > 30_000.0 && vif < 40_000.0);
  checkb "vf in the 55-65K band" true (vf > 55_000.0 && vf < 65_000.0)

let test_shape_tunneling_capped () =
  let tb, a, b = pair_testbed ~config:Compute.Cost_params.with_tunneling () in
  Experiments.Testbed.connect_tunnels tb;
  Workloads.Netperf.install_stream_sink ~vm:b.Host.Server.vm;
  let streams =
    Workloads.Netperf.tcp_stream ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
      ~size:32000 ()
  in
  Experiments.Testbed.run_for tb ~seconds:0.4;
  List.iter
    (fun s ->
      Workloads.Stream.reset_measurement s
        ~now:(Engine.now tb.Experiments.Testbed.engine))
    streams;
  Experiments.Testbed.run_for tb ~seconds:0.6;
  let now = Engine.now tb.Experiments.Testbed.engine in
  let g = List.fold_left (fun acc s -> acc +. Workloads.Stream.goodput_gbps s ~now) 0.0 streams in
  (* "The current OVS tunneling implementation was not able to support
     throughputs beyond 2 Gbps." *)
  checkb "<= ~2.2 Gb/s" true (g < 2.2);
  checkb "but not collapsed" true (g > 1.0)

let test_shape_closed_loop_latency () =
  let rr path =
    let tb, a, b = pair_testbed () in
    if path = `Vf then begin
      Experiments.Testbed.force_path_vf tb a;
      Experiments.Testbed.force_path_vf tb b
    end;
    Workloads.Netperf.install_rr_server ~vm:b.Host.Server.vm ~response_size:64;
    let c =
      Workloads.Netperf.tcp_rr ~engine:tb.Experiments.Testbed.engine
        ~vm:a.Host.Server.vm
        ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
        ~size:64
    in
    Experiments.Testbed.run_for tb ~seconds:0.5;
    Workloads.Transactions.Client.mean_latency_us c
  in
  let vif = rr `Vif and vf = rr `Vf in
  checkb "sr-iov lower latency" true (vf < vif);
  checkb "meaningfully lower" true (vif /. vf > 1.5)

(* --- Benchmark meter --- *)

(* Every allocation budget rests on [minor_words_per_op] pricing
   exactly one op: a 2-word [ref] per op must read 2 words whatever
   the op count, and an allocation-free loop must read under the zero
   bar. *)
let test_bench_measure_prices_one_op () =
  List.iter
    (fun ops ->
      let measure name f =
        (Experiments.Bench_scenarios.measure ~smoke:true ~unit_:"op" ~ops name f)
          .Experiments.Bench_scenarios.minor_words_per_op
      in
      let one_ref =
        measure "one-ref" (fun () ->
            for i = 1 to ops do
              ignore (Sys.opaque_identity (ref i))
            done)
      in
      let free =
        measure "free" (fun () ->
            for i = 1 to ops do
              ignore (Sys.opaque_identity i)
            done)
      in
      Alcotest.(check (float 0.05))
        (Printf.sprintf "one ref per op at %d ops" ops)
        2.0 one_ref;
      checkb (Printf.sprintf "no allocation at %d ops" ops) true (free < 0.05))
    [ 1_000; 50_000 ]

let test_soak_rejects_infinite_duration () =
  (* An infinite horizon has no simulated-time value: the run must fail
     up front, not simulate nothing and return. *)
  let config = { Experiments.Soak.default_config with duration = Float.infinity } in
  match Experiments.Soak.run ~config () with
  | r ->
      Alcotest.failf "returned: events=%d windows=%d" r.Experiments.Soak.events
        r.Experiments.Soak.windows
  | exception Invalid_argument _ -> ()

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "transactions complete" test_transactions_complete;
    t "transactions retry lost requests" test_transactions_retry_lost_requests;
    t "stream goodput" test_stream_goodput_measured;
    t "stream total bytes" test_stream_total_bytes_stops;
    t "scp paced at ~135 pps" test_scp_paced_low_pps;
    t "flowgen locality" test_flowgen_locality;
    t "portspace basics" test_portspace_basics;
    t "flowgen no src-port aliasing past 10k flows"
      test_flowgen_no_src_port_aliasing;
    t "stream tail batch acked" test_stream_tail_acked;
    t "stream acks never exceed sent" test_stream_ack_never_exceeds_sent;
    QCheck_alcotest.to_alcotest prop_pareto_mean_converges;
    QCheck_alcotest.to_alcotest prop_curve_mean_one;
    QCheck_alcotest.to_alcotest prop_churn_fully_departed;
    t "shape: burst tps ratio" test_shape_burst_tps_ratio;
    t "shape: tunneling capped" test_shape_tunneling_capped;
    t "shape: closed-loop latency" test_shape_closed_loop_latency;
    t "bench measure prices one op" test_bench_measure_prices_one_op;
    t "soak rejects an infinite duration" test_soak_rejects_infinite_duration;
  ]
