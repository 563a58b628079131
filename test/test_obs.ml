(* Tests for the observability layer: JSONL codec round-trips, trace
   emission during a live control-plane run, metrics registry
   consistency with the engines' own counters, and the no-op sink's
   non-interference with simulation results. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4
module Trace = Obs.Trace
module Metrics = Obs.Metrics

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string
let tenant = Netcore.Tenant.of_int 7

(* --- JSONL codec --- *)

let sample_pattern =
  {
    Fkey.Pattern.any with
    Fkey.Pattern.src_ip = Some (Ipv4.of_string "10.7.0.1");
    src_port = Some 11211;
    tenant = Some tenant;
  }

let full_pattern =
  {
    Fkey.Pattern.src_ip = Some (Ipv4.of_string "10.7.0.1");
    dst_ip = Some (Ipv4.of_string "10.7.0.2");
    src_port = Some 50_000;
    dst_port = Some 9000;
    proto = Some Fkey.Tcp;
    tenant = Some tenant;
  }

let vm1 = Ipv4.of_string "10.7.0.1"
let vm2 = Ipv4.of_string "10.7.0.2"

let sample_events =
  [
    Trace.Flow_promoted
      {
        pattern = sample_pattern;
        tenant;
        vm_ip = vm1;
        server = "server0";
        score = 12345.75;
        tcam_entries = 3;
      };
    Trace.Flow_demoted
      {
        pattern = full_pattern;
        tenant;
        vm_ip = vm1;
        server = "server0";
        reason = "deselected";
      };
    Trace.Tcam_install { tenant; entries = 4; used = 12; capacity = 2048 };
    Trace.Tcam_evict { tenant; entries = 4; used = 8; capacity = 2048 };
    Trace.Fps_split
      {
        vm_ip = vm2;
        soft_bps = 7.5e8;
        hard_bps = 2.5e8;
        total_bps = 9.0e8;
        overflow_bps = 5.0e7;
      };
    Trace.Fps_split
      {
        vm_ip = vm2;
        soft_bps = 0.1 +. 0.2;  (* not exactly representable: exercises %.17g *)
        hard_bps = 1e9;
        total_bps = 1e9 +. (0.1 +. 0.2);
        overflow_bps = 0.0;
      };
    Trace.Path_transition
      { vm_ip = vm1; pattern = sample_pattern; path = Trace.Express };
    Trace.Path_transition
      { vm_ip = vm1; pattern = Fkey.Pattern.any; path = Trace.Software };
    Trace.Rule_pushed
      { server = "server1"; pattern = sample_pattern; push = `Offload; seq = 12 };
    Trace.Rule_pushed
      { server = "server1"; pattern = full_pattern; push = `Demote; seq = 13 };
    Trace.Epoch_tick { me = "server0.me"; epoch = 17; interval = 2 };
    Trace.Ctrl_drop { channel = "server0.directive" };
    Trace.Ctrl_retry { server = "server0"; seq = 42; attempt = 3; span = 9 };
    Trace.Peer_state { server = "server1"; alive = false };
    Trace.Peer_state { server = "server1"; alive = true };
    Trace.Migration_stage { vm_ip = vm1; stage = `Prepare };
    Trace.Migration_stage { vm_ip = vm1; stage = `Commit };
    Trace.Migration_stage { vm_ip = vm2; stage = `Abort };
    Trace.Span_begin
      {
        span = 9;
        parent = 0;
        kind = "directive";
        name = "offload seq=42";
        track = "server0";
      };
    Trace.Span_end { span = 9; outcome = "acked" };
    Trace.Span_begin
      {
        span = 10;
        parent = 9;
        kind = "install";
        name = "install";
        track = "tor";
      };
    Trace.Span_end { span = 10; outcome = "failed" };
    Trace.Lane_state { lane = "fc0->fc1"; up = false };
    Trace.Lane_state { lane = "fc0->fc1"; up = true };
    Trace.Tcam_error { tenant; kind = "soft_error"; entries = 2 };
    Trace.Flow_progress { flow = "fc0.xs:6200"; sent = 409_600; acked = 401_408 };
    Trace.Cache_hit
      {
        vif = "server0.vm1";
        flow = full_pattern;
        tier = `Exact;
        cached = "allow q=1";
        fresh = "allow q=1";
      };
    Trace.Cache_hit
      {
        vif = "server0.vm1";
        flow = sample_pattern;
        tier = `Megaflow;
        cached = "tunnel \"gre\"";
        fresh = "drop\tacl";
      };
    Trace.Cache_miss { vif = "server0.vm1"; flow = full_pattern };
    Trace.Cache_invalidate
      { vif = "server0.vm1"; reason = "migration"; dropped = 5; exact = 3; megaflow = 2 };
  ]

let test_jsonl_round_trip () =
  List.iteri
    (fun i event ->
      let now = Simtime.of_ns ((i + 1) * 123_456_789) in
      let line = Trace.to_jsonl now event in
      match Trace.of_jsonl line with
      | None -> Alcotest.failf "event %d failed to parse: %s" i line
      | Some (now', event') ->
          checki "timestamp round-trips" (Simtime.to_ns now) (Simtime.to_ns now');
          (* Structural equality via re-encoding: identical events encode
             identically, and the encoding covers every payload field. *)
          checks "event round-trips" line (Trace.to_jsonl now' event'))
    sample_events

let test_jsonl_rejects_garbage () =
  checkb "empty" true (Trace.of_jsonl "" = None);
  checkb "not json" true (Trace.of_jsonl "hello" = None);
  checkb "unknown event" true
    (Trace.of_jsonl {|{"t_ns":1,"t":0.0,"ev":"martian"}|} = None);
  checkb "missing fields" true
    (Trace.of_jsonl {|{"t_ns":1,"t":0.0,"ev":"epoch_tick","me":"x"}|} = None);
  let line = {|{"t_ns":1,"t":0.0,"ev":"ctrl_drop","channel":"c"}|} in
  checkb "valid line parses" true (Trace.of_jsonl line <> None);
  checkb "trailing whitespace accepted" true
    (Trace.of_jsonl (line ^ " \t\r\n") <> None);
  (* A torn or merged write must not parse as its first event. *)
  checkb "two events on one line" true (Trace.of_jsonl (line ^ line) = None);
  checkb "bytes after the object" true (Trace.of_jsonl (line ^ "x") = None);
  checkb "trailing comma" true
    (Trace.of_jsonl {|{"t_ns":1,"t":0.0,"ev":"ctrl_drop","channel":"c",}|} = None);
  checkb "repeated key" true
    (Trace.of_jsonl
       {|{"t_ns":1,"t":0.0,"ev":"ctrl_drop","channel":"c","channel":"d"}|}
    = None)

(* FPS used to split a receive limit too, so older traces carry a
   "dir":"tx" key on every fps_split line. trace-export must keep
   reading them; the reader skips the key. *)
let test_jsonl_reads_fps_split_dir_key () =
  let line =
    {|{"t_ns":800000000,"t":0.800000000,"ev":"fps_split","vm_ip":"10.7.0.1","dir":"tx","soft_bps":450000000,"hard_bps":1650000000,"total_bps":2000000000,"overflow_bps":50000000}|}
  in
  match Trace.of_jsonl line with
  | Some (_, (Trace.Fps_split { soft_bps; hard_bps; _ } as ev)) ->
      checkb "rates read" true (soft_bps = 4.5e8 && hard_bps = 1.65e9);
      checks "re-encodes without dir"
        {|{"t_ns":800000000,"t":0.800000000,"ev":"fps_split","vm_ip":"10.7.0.1","soft_bps":450000000,"hard_bps":1650000000,"total_bps":2000000000,"overflow_bps":50000000}|}
        (Trace.to_jsonl (Simtime.of_ns 800_000_000) ev)
  | _ -> Alcotest.fail "fps_split with a dir key did not parse"

let test_pattern_codec () =
  List.iter
    (fun p ->
      match Trace.pattern_of_string (Trace.pattern_to_string p) with
      | None -> Alcotest.failf "unparseable: %s" (Trace.pattern_to_string p)
      | Some p' -> checkb "pattern round-trips" true (Fkey.Pattern.equal p p'))
    [ Fkey.Pattern.any; sample_pattern; full_pattern;
      { full_pattern with Fkey.Pattern.proto = Some (Fkey.Other 47) } ];
  checks "wildcard form" "*/*/*/*/*/*" (Trace.pattern_to_string Fkey.Pattern.any);
  checkb "garbage rejected" true (Trace.pattern_of_string "1/2/3" = None)

(* --- live run: events and metrics --- *)

(* Mirror of test_fastrak's hot testbed: one hot transactional client on
   server0 talking to a sink on server1, with a fast control loop. *)
let fast_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
    min_score = 100.0;
  }

let hot_testbed () =
  let tb = Experiments.Testbed.create ~server_count:2 () in
  let a =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"hot" ~ip_last_octet:1 ())
  in
  let b =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"sink" ~ip_last_octet:2 ())
  in
  Experiments.Testbed.connect_tunnels tb;
  let rm =
    Fastrak.Rule_manager.create ~engine:tb.Experiments.Testbed.engine
      ~config:fast_config ~tor:tb.Experiments.Testbed.tor
      ~servers:(Array.to_list tb.Experiments.Testbed.servers)
      ()
  in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  let client =
    Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        Workloads.Transactions.Client.servers =
          [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
        connections = 1;
        outstanding = 8;
        request_size = 64;
        total_requests = None;
        src_port_base = 50_000;
      }
  in
  (tb, rm, client)

let count_ev f events = List.length (List.filter (fun (_, e) -> f e) events)

let test_trace_and_metrics_of_live_run () =
  let events = ref [] in
  Trace.use_callback (fun now ev -> events := (now, ev) :: !events);
  let before = Metrics.snapshot () in
  let tb, rm, client = hot_testbed () in
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  let ordered () = List.rev !events in
  checkb "promotion traced" true
    (count_ev (function Trace.Flow_promoted _ -> true | _ -> false) (ordered ())
    > 0);
  checkb "tcam install traced" true
    (count_ev (function Trace.Tcam_install _ -> true | _ -> false) (ordered ())
    > 0);
  (* The VRF install is live before the promotion is announced
     (make-before-break), so the first install precedes the first
     promotion in emission order, and both carry the same tenant. *)
  let first p =
    let rec go = function
      | [] -> None
      | (now, e) :: rest -> if p e then Some (now, e) else go rest
    in
    go (ordered ())
  in
  (match
     ( first (function Trace.Tcam_install _ -> true | _ -> false),
       first (function Trace.Flow_promoted _ -> true | _ -> false) )
   with
  | ( Some (t_inst, Trace.Tcam_install { tenant = ti; _ }),
      Some (t_prom, Trace.Flow_promoted { tenant = tp; _ }) ) ->
      checkb "install not after promotion" true
        (Simtime.to_ns t_inst <= Simtime.to_ns t_prom);
      checki "same tenant" (Netcore.Tenant.to_int ti) (Netcore.Tenant.to_int tp)
  | _ -> Alcotest.fail "missing install or promotion");
  (* Stop the workload; history ages out and the DE demotes. *)
  Workloads.Transactions.Client.stop client;
  Experiments.Testbed.run_for tb ~seconds:3.0;
  Trace.disable ();
  let events = ordered () in
  checkb "demotion traced" true
    (List.exists
       (function
         | _, Trace.Flow_demoted { reason; _ } -> reason = "deselected"
         | _ -> false)
       events);
  checkb "tcam evict traced" true
    (count_ev (function Trace.Tcam_evict _ -> true | _ -> false) events > 0);
  checkb "epoch ticks traced" true
    (count_ev (function Trace.Epoch_tick _ -> true | _ -> false) events > 0);
  (* Sim timestamps never go backwards along the emission order. *)
  let monotone, _ =
    List.fold_left
      (fun (ok, prev) (now, _) -> (ok && Simtime.to_ns now >= prev, Simtime.to_ns now))
      (true, 0) events
  in
  checkb "timestamps monotone" true monotone;
  (* Registry deltas agree with what the engines counted themselves. *)
  let after = Metrics.snapshot () in
  let delta = Metrics.diff ~before ~after in
  let counter_delta name =
    match List.assoc_opt name delta with
    | Some (Metrics.Counter_v n) -> n
    | _ -> 0
  in
  let ovs_upcalls =
    Array.fold_left
      (fun acc s -> acc + Vswitch.Ovs.upcalls (Host.Server.ovs s))
      0 tb.Experiments.Testbed.servers
  in
  checki "upcall counter matches engines" ovs_upcalls
    (counter_delta "vswitch.upcalls");
  let promotions = counter_delta "fastrak.promotions" in
  let demotions = counter_delta "fastrak.demotions" in
  checkb "promotions happened" true (promotions > 0);
  checki "promotions - demotions = live offloads"
    (Fastrak.Rule_manager.offloaded_count rm)
    (promotions - demotions);
  checki "trace promotions = promotion counter" promotions
    (count_ev (function Trace.Flow_promoted _ -> true | _ -> false) events)

(* --- no-op sink leaves results unchanged --- *)

let run_scenario () =
  let tb, rm, client = hot_testbed () in
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  ( Workloads.Transactions.Client.completed client,
    Fastrak.Rule_manager.offloaded_count rm,
    Engine.events_processed tb.Experiments.Testbed.engine )

let test_noop_sink_identical_results () =
  Trace.disable ();
  let completed_off, offloaded_off, events_off = run_scenario () in
  let traced = ref 0 in
  Trace.use_callback (fun _ _ -> incr traced);
  let completed_on, offloaded_on, events_on = run_scenario () in
  Trace.disable ();
  checkb "tracing saw events" true (!traced > 0);
  checki "same completed requests" completed_off completed_on;
  checki "same offload count" offloaded_off offloaded_on;
  checki "same event count" events_off events_on

(* --- codec robustness: random corruptions never raise --- *)

(* Replace the value of [field] (a bare JSON number) with [nan]. *)
let nanify field line =
  let marker = "\"" ^ field ^ "\":" in
  let mlen = String.length marker in
  let n = String.length line in
  let rec find i =
    if i + mlen > n then None
    else if String.sub line i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some start ->
      let stop = ref start in
      while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
        incr stop
      done;
      String.sub line 0 start ^ "nan" ^ String.sub line !stop (n - !stop)

let prop_of_jsonl_corruption_safe =
  let gen =
    QCheck2.Gen.(
      quad
        (int_range 0 (List.length sample_events - 1))
        (int_range 0 1_000_000_000)
        (int_range 0 500)
        (oneof [ return `Truncate; map (fun c -> `Flip c) (char_range '\000' '\255') ]))
  in
  QCheck2.Test.make ~name:"of_jsonl survives random corruption" ~count:500 gen
    (fun (idx, t_ns, pos, op) ->
      let line =
        Trace.to_jsonl (Simtime.of_ns t_ns) (List.nth sample_events idx)
      in
      let n = String.length line in
      (match op with
      | `Truncate ->
          (* Any strict prefix is malformed: the closing brace is gone. *)
          let k = pos mod n in
          if Trace.of_jsonl (String.sub line 0 k) <> None then
            QCheck2.Test.fail_reportf "truncated line parsed: %s"
              (String.sub line 0 k)
      | `Flip c -> (
          let k = pos mod n in
          let corrupted = Bytes.of_string line in
          Bytes.set corrupted k c;
          (* A single byte flip may still parse (e.g. inside a server
             name) — the property is only that it never raises and that
             a successful parse re-encodes. *)
          match Trace.of_jsonl (Bytes.to_string corrupted) with
          | None -> ()
          | Some (now, ev) -> ignore (Trace.to_jsonl now ev)));
      true)

let test_of_jsonl_nan_payloads () =
  List.iteri
    (fun i event ->
      let line = Trace.to_jsonl (Simtime.of_ns ((i + 1) * 1000)) event in
      List.iter
        (fun field ->
          let poisoned = nanify field line in
          if poisoned <> line then
            checkb
              (Printf.sprintf "nan %s rejected (event %d)" field i)
              true
              (Trace.of_jsonl poisoned = None))
        [ "t_ns"; "t"; "score"; "soft_bps"; "hard_bps"; "total_bps";
          "overflow_bps"; "seq"; "span" ])
    sample_events

(* The JSONL codec over randomised payloads: decode . encode = id for
   every constructor with arbitrary ints, byte strings, IPs, patterns
   and finite floats. No emitter produces a non-finite float, and
   %.17g would print infinity as "inf", which no JSON parser reads. *)
let prop_jsonl_round_trip =
  let open QCheck2.Gen in
  let gen_str = small_string ~gen:char in
  let gen_ip =
    map2
      (fun a b -> Ipv4.of_string (Printf.sprintf "10.%d.%d.%d" (a mod 250) (b mod 250) ((a + b) mod 250)))
      small_nat small_nat
  in
  let gen_tenant = map (fun n -> Netcore.Tenant.of_int (1 + (n mod 1000))) small_nat in
  let gen_float =
    map (fun f -> if Float.is_finite f then f else 0.5) float
  in
  let gen_proto =
    oneof
      [
        return Fkey.Tcp;
        return Fkey.Udp;
        return Fkey.Icmp;
        map (fun n -> Fkey.Other (n mod 200)) small_nat;
      ]
  in
  let gen_pattern =
    let* src_ip = option gen_ip in
    let* dst_ip = option gen_ip in
    let* src_port = option (int_range 0 65535) in
    let* dst_port = option (int_range 0 65535) in
    let* proto = option gen_proto in
    let* tenant = option gen_tenant in
    return { Fkey.Pattern.src_ip; dst_ip; src_port; dst_port; proto; tenant }
  in
  let gen_event =
    oneof
      [
        (let* pattern = gen_pattern and* tenant = gen_tenant and* vm_ip = gen_ip
         and* server = gen_str and* score = gen_float and* tcam_entries = int in
         return (Trace.Flow_promoted { pattern; tenant; vm_ip; server; score; tcam_entries }));
        (let* pattern = gen_pattern and* tenant = gen_tenant and* vm_ip = gen_ip
         and* server = gen_str and* reason = gen_str in
         return (Trace.Flow_demoted { pattern; tenant; vm_ip; server; reason }));
        (let* tenant = gen_tenant and* entries = int and* used = int and* capacity = int in
         return (Trace.Tcam_install { tenant; entries; used; capacity }));
        (let* tenant = gen_tenant and* entries = int and* used = int and* capacity = int in
         return (Trace.Tcam_evict { tenant; entries; used; capacity }));
        (let* vm_ip = gen_ip and* soft_bps = gen_float and* hard_bps = gen_float
         and* total_bps = gen_float and* overflow_bps = gen_float in
         return
           (Trace.Fps_split { vm_ip; soft_bps; hard_bps; total_bps; overflow_bps }));
        (let* vm_ip = gen_ip and* pattern = gen_pattern
         and* path = oneof [ return Trace.Software; return Trace.Express ] in
         return (Trace.Path_transition { vm_ip; pattern; path }));
        (let* server = gen_str and* pattern = gen_pattern
         and* push = oneof [ return `Offload; return `Demote ] and* seq = int in
         return (Trace.Rule_pushed { server; pattern; push; seq }));
        (let* me = gen_str and* epoch = int and* interval = int in
         return (Trace.Epoch_tick { me; epoch; interval }));
        (let* channel = gen_str in
         return (Trace.Ctrl_drop { channel }));
        (let* server = gen_str and* seq = int and* attempt = int and* span = int in
         return (Trace.Ctrl_retry { server; seq; attempt; span }));
        (let* server = gen_str and* alive = bool in
         return (Trace.Peer_state { server; alive }));
        (let* lane = gen_str and* up = bool in
         return (Trace.Lane_state { lane; up }));
        (let* tenant = gen_tenant and* kind = gen_str and* entries = int in
         return (Trace.Tcam_error { tenant; kind; entries }));
        (let* flow = gen_str and* sent = int and* acked = int in
         return (Trace.Flow_progress { flow; sent; acked }));
        (let* vm_ip = gen_ip
         and* stage = oneof [ return `Prepare; return `Commit; return `Abort ] in
         return (Trace.Migration_stage { vm_ip; stage }));
        (let* span = int and* parent = int and* kind = gen_str
         and* name = gen_str and* track = gen_str in
         return (Trace.Span_begin { span; parent; kind; name; track }));
        (let* span = int and* outcome = gen_str in
         return (Trace.Span_end { span; outcome }));
        (let* vif = gen_str and* flow = gen_pattern
         and* tier = oneof [ return `Exact; return `Megaflow ]
         and* cached = gen_str and* fresh = gen_str in
         return (Trace.Cache_hit { vif; flow; tier; cached; fresh }));
        (let* vif = gen_str and* flow = gen_pattern in
         return (Trace.Cache_miss { vif; flow }));
        (let* vif = gen_str and* reason = gen_str and* dropped = int
         and* exact = int and* megaflow = int in
         return (Trace.Cache_invalidate { vif; reason; dropped; exact; megaflow }));
      ]
  in
  let gen =
    QCheck2.Gen.(pair (small_list gen_event) (int_range 0 1_000_000_000))
  in
  QCheck2.Test.make ~name:"jsonl codec round-trips" ~count:300 gen
    (fun (events, t0) ->
      List.for_all
        (fun ev ->
          let now = Simtime.of_ns t0 in
          Trace.of_jsonl (Trace.to_jsonl now ev) = Some (now, ev))
        events)

(* --- timeseries: P2 quantile estimators --- *)

let test_p2_quantiles () =
  let collector = Obs.Timeseries.create () in
  let s = Obs.Timeseries.series ~collector "test.latency" in
  (* A deterministic pseudo-shuffle of 1..10_000: quantiles of the
     uniform grid are known exactly. *)
  let n = 10_000 in
  let lcg = ref 12345 in
  let order = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = !lcg mod (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  Array.iter (fun v -> Obs.Timeseries.observe s (float_of_int v)) order;
  let q = Obs.Timeseries.quantiles s in
  checki "count" n q.Obs.Timeseries.count;
  let within name expected tolerance actual =
    checkb
      (Printf.sprintf "%s ~ %.0f (got %.1f)" name expected actual)
      true
      (Float.abs (actual -. expected) <= tolerance)
  in
  within "p50" 5000.0 150.0 q.Obs.Timeseries.p50;
  within "p90" 9000.0 150.0 q.Obs.Timeseries.p90;
  within "p99" 9900.0 150.0 q.Obs.Timeseries.p99;
  within "mean" 5000.5 1.0 q.Obs.Timeseries.mean;
  (* Small counts fall back to exact order statistics. *)
  let s2 = Obs.Timeseries.series ~collector "test.small" in
  List.iter (Obs.Timeseries.observe s2) [ 30.0; 10.0; 20.0 ];
  let q2 = Obs.Timeseries.quantiles s2 in
  checkb "small p50 exact" true (q2.Obs.Timeseries.p50 = 20.0);
  (* NaN observations are dropped, not propagated. *)
  Obs.Timeseries.observe s2 Float.nan;
  checki "nan dropped" 3 (Obs.Timeseries.quantiles s2).Obs.Timeseries.count;
  (* reset_series clears estimator state but keeps handles. *)
  Obs.Timeseries.reset_series ~collector ();
  checki "reset count" 0 (Obs.Timeseries.quantiles s).Obs.Timeseries.count

let test_timeseries_rows_and_output () =
  let collector = Obs.Timeseries.create () in
  let s = Obs.Timeseries.series ~collector "a.b" in
  let empty = Obs.Timeseries.series ~collector "never.observed" in
  ignore empty;
  Obs.Timeseries.observe s 42.0;
  Obs.Timeseries.tick ~collector ~now:(Simtime.of_ns 1_000_000) ();
  Obs.Timeseries.observe s 58.0;
  Obs.Timeseries.tick ~collector ~now:(Simtime.of_ns 2_000_000) ();
  let rows = Obs.Timeseries.rows ~collector () in
  (* Series with no observations produce no rows. *)
  checki "two rows" 2 (List.length rows);
  let r2 = List.nth rows 1 in
  checki "row count grows" 2 r2.Obs.Timeseries.stats.Obs.Timeseries.count;
  checkb "row mean" true
    (Float.abs (r2.Obs.Timeseries.stats.Obs.Timeseries.mean -. 50.0) < 1e-9);
  let line = Obs.Timeseries.row_to_jsonl r2 in
  checkb "jsonl row parses flat" true (Trace.parse_flat line <> None)

(* --- invariant monitors --- *)

let t0 = Simtime.of_ns 1_000

let test_monitor_catches_violations () =
  let mon = Obs.Monitor.create () in
  let obs = Obs.Monitor.observe mon t0 in
  (* TCAM occupancy over capacity. *)
  obs (Trace.Tcam_install { tenant; entries = 4; used = 12; capacity = 8 });
  (* Sequence regression: 7 then 7 again on the same server. *)
  obs
    (Trace.Rule_pushed
       { server = "s0"; pattern = sample_pattern; push = `Offload; seq = 7 });
  obs
    (Trace.Rule_pushed
       { server = "s0"; pattern = sample_pattern; push = `Demote; seq = 7 });
  (* A different server may reuse the number (rack-global seq space,
     per-server subsequence). *)
  obs
    (Trace.Rule_pushed
       { server = "s1"; pattern = sample_pattern; push = `Offload; seq = 7 });
  (* FPS split handing out more than total + 2*overflow. *)
  obs
    (Trace.Fps_split
       {
         vm_ip = vm1;
         soft_bps = 9e8;
         hard_bps = 9e8;
         total_bps = 1e9;
         overflow_bps = 1e8;
       });
  (* Installed-without-Pending: span ends that never began. *)
  obs (Trace.Span_end { span = 404; outcome = "installed" });
  (* Migration commit without prepare. *)
  obs (Trace.Migration_stage { vm_ip = vm2; stage = `Commit });
  let count name =
    Option.value (List.assoc_opt name (Obs.Monitor.counts mon)) ~default:0
  in
  checki "tcam violation" 1 (count "tcam_capacity");
  checki "seq violation" 1 (count "seq_monotonic");
  checki "fps violation" 1 (count "fps_conservation");
  checki "span violation" 1 (count "span_pairing");
  checki "migration violation" 1 (count "migration_order");
  checki "total" 5 (Obs.Monitor.total mon)

let test_monitor_cache_coherence () =
  let mon = Obs.Monitor.create () in
  let obs = Obs.Monitor.observe mon t0 in
  (* Agreeing hit, a miss, and a well-formed invalidate are all legal. *)
  obs
    (Trace.Cache_hit
       {
         vif = "vif0";
         flow = sample_pattern;
         tier = `Exact;
         cached = "allow/q0/-";
         fresh = "allow/q0/-";
       });
  obs (Trace.Cache_miss { vif = "vif0"; flow = sample_pattern });
  obs
    (Trace.Cache_invalidate
       { vif = "vif0"; reason = "policy_change"; dropped = 3; exact = 1; megaflow = 2 });
  checki "clean so far" 0 (Obs.Monitor.total mon);
  (* A cached verdict disagreeing with the fresh evaluation is the
     staleness bug this monitor exists for. *)
  obs
    (Trace.Cache_hit
       {
         vif = "vif0";
         flow = sample_pattern;
         tier = `Megaflow;
         cached = "allow/q0/-";
         fresh = "deny/q0/-";
       });
  obs
    (Trace.Cache_invalidate
       { vif = "vif0"; reason = "idle"; dropped = -1; exact = 0; megaflow = 0 });
  let count name =
    Option.value (List.assoc_opt name (Obs.Monitor.counts mon)) ~default:0
  in
  checki "coherence violations" 2 (count "cache_coherence");
  checki "total" 2 (Obs.Monitor.total mon)

let test_monitor_accepts_legal_stream () =
  let mon = Obs.Monitor.create ~mode:Obs.Monitor.Strict () in
  let obs = Obs.Monitor.observe mon t0 in
  obs (Trace.Tcam_install { tenant; entries = 4; used = 8; capacity = 8 });
  obs (Trace.Tcam_evict { tenant; entries = 4; used = 4; capacity = 8 });
  obs
    (Trace.Rule_pushed
       { server = "s0"; pattern = sample_pattern; push = `Offload; seq = 3 });
  obs
    (Trace.Rule_pushed
       { server = "s0"; pattern = sample_pattern; push = `Demote; seq = 9 });
  obs
    (Trace.Fps_split
       {
         vm_ip = vm1;
         soft_bps = 6e8;
         hard_bps = 6e8;
         total_bps = 1e9;
         overflow_bps = 1e8;
       });
  obs
    (Trace.Span_begin
       { span = 1; parent = 0; kind = "offload"; name = "x"; track = "tor" });
  obs (Trace.Span_end { span = 1; outcome = "deselected" });
  obs (Trace.Migration_stage { vm_ip = vm2; stage = `Prepare });
  obs (Trace.Migration_stage { vm_ip = vm2; stage = `Abort });
  obs (Trace.Migration_stage { vm_ip = vm2; stage = `Prepare });
  obs (Trace.Migration_stage { vm_ip = vm2; stage = `Commit });
  checki "no violations" 0 (Obs.Monitor.total mon);
  checki "events checked" 11 (Obs.Monitor.events_checked mon)

let test_monitor_strict_raises () =
  let mon = Obs.Monitor.create ~mode:Obs.Monitor.Strict () in
  checkb "strict raises on first violation" true
    (match
       Obs.Monitor.observe mon t0
         (Trace.Tcam_install { tenant; entries = 1; used = 9; capacity = 8 })
     with
    | exception Obs.Monitor.Strict_violation v ->
        v.Obs.Monitor.monitor = "tcam_capacity"
    | () -> false)

(* Monitors attached via the tee see the same live run the sink sees,
   and injected violations through a callback sink are caught. *)
let test_monitor_on_live_run_clean () =
  Trace.disable ();
  let mon = Obs.Monitor.create () in
  Obs.Monitor.attach mon;
  let tb, rm, client = hot_testbed () in
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  Workloads.Transactions.Client.stop client;
  Experiments.Testbed.run_for tb ~seconds:3.0;
  Trace.disable ();
  checkb "saw events" true (Obs.Monitor.events_checked mon > 0);
  if Obs.Monitor.total mon > 0 then
    Alcotest.failf "clean run produced violations:\n%s" (Obs.Monitor.report mon)

(* The full table4 pipeline (two sub-experiments, migrations included)
   also runs monitor-clean: every emitted event satisfies the
   invariants end to end. *)
let test_monitor_clean_table4 () =
  Trace.disable ();
  let saved = !Experiments.Memcached_eval.requests_scale in
  Experiments.Memcached_eval.requests_scale := 0.02;
  Fun.protect
    ~finally:(fun () ->
      Experiments.Memcached_eval.requests_scale := saved;
      Trace.disable ())
    (fun () ->
      let mon = Obs.Monitor.create () in
      Obs.Monitor.attach mon;
      ignore (Experiments.Fastrak_eval.run ());
      Trace.disable ();
      checkb "saw events" true (Obs.Monitor.events_checked mon > 0);
      if Obs.Monitor.total mon > 0 then
        Alcotest.failf "table4 produced violations:\n%s"
          (Obs.Monitor.report mon))

(* --- Perfetto export --- *)

let test_export_nesting_and_validation () =
  let span ~t ~span ~parent ~kind ~name ~track =
    (Simtime.of_ns t, Trace.Span_begin { span; parent; kind; name; track })
  in
  let fin ~t ~span ~outcome = (Simtime.of_ns t, Trace.Span_end { span; outcome }) in
  let events =
    [
      (* Parent enclosing a child (same track: nested on one lane). *)
      span ~t:100 ~span:1 ~parent:0 ~kind:"offload" ~name:"A" ~track:"tor";
      span ~t:200 ~span:2 ~parent:1 ~kind:"install" ~name:"B" ~track:"tor";
      (* Overlapping-but-not-nested span: must land on another lane. *)
      span ~t:300 ~span:3 ~parent:0 ~kind:"offload" ~name:"C" ~track:"tor";
      fin ~t:400 ~span:2 ~outcome:"installed";
      (* A span on another track, plus instants. *)
      span ~t:450 ~span:4 ~parent:2 ~kind:"directive" ~name:"D" ~track:"server0";
      ( Simtime.of_ns 500,
        Trace.Ctrl_retry { server = "server0"; seq = 1; attempt = 2; span = 4 } );
      (Simtime.of_ns 550, Trace.Ctrl_drop { channel = "server0.uplink" });
      fin ~t:600 ~span:1 ~outcome:"deselected";
      fin ~t:700 ~span:3 ~outcome:"deselected";
      (* Span 4 is never finished: closed synthetically at 800. *)
      ( Simtime.of_ns 800,
        Trace.Tcam_install { tenant; entries = 1; used = 3; capacity = 8 } );
    ]
  in
  let chrome = Obs.Export.convert events in
  (match Obs.Export.validate chrome with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "export does not validate: %s" e);
  let spans_of name =
    List.find
      (fun e -> e.Obs.Export.ph = "B" && e.Obs.Export.name = name)
      chrome
  in
  let a = spans_of "A" and b = spans_of "B" and c = spans_of "C" in
  checki "child shares parent lane" a.Obs.Export.tid b.Obs.Export.tid;
  checkb "overlap gets its own lane" true (c.Obs.Export.tid <> a.Obs.Export.tid);
  checkb "lane 0 reserved for instants" true
    (List.for_all
       (fun e -> e.Obs.Export.ph <> "B" || e.Obs.Export.tid > 0)
       chrome);
  (* The unterminated span is closed at the final trace instant. *)
  let d_end =
    List.find
      (fun e -> e.Obs.Export.ph = "E" && e.Obs.Export.name = "D")
      chrome
  in
  checkb "unterminated closed at trace end" true
    (Float.abs (d_end.Obs.Export.ts_us -. 0.8) < 1e-9);
  (* Instants and the counter made it through. *)
  checkb "retry instant" true
    (List.exists
       (fun e -> e.Obs.Export.ph = "i" && e.Obs.Export.name = "retry seq=1")
       chrome);
  checkb "tcam counter" true
    (List.exists (fun e -> e.Obs.Export.ph = "C") chrome);
  (* Tamper check: the validator rejects a broken stream. *)
  let broken =
    List.filter
      (fun e -> not (e.Obs.Export.ph = "E" && e.Obs.Export.name = "B"))
      chrome
  in
  checkb "validator rejects unclosed B" true
    (match Obs.Export.validate broken with Error _ -> true | Ok _ -> false)

let test_export_of_live_run_round_trips () =
  Trace.disable ();
  Obs.Span.reset ();
  let dir = Filename.temp_file "fastrak_trace" "" in
  Sys.remove dir;
  let jsonl = dir ^ ".jsonl" and json = dir ^ ".json" in
  let oc = open_out jsonl in
  Trace.use_jsonl oc;
  let tb, rm, client = hot_testbed () in
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  Workloads.Transactions.Client.stop client;
  Experiments.Testbed.run_for tb ~seconds:3.0;
  Trace.disable ();
  close_out oc;
  (match Obs.Export.convert_file ~input:jsonl ~output:json with
  | Error e -> Alcotest.failf "convert_file failed: %s" e
  | Ok { Obs.Export.events_in; skipped; events_out } ->
      checkb "events in" true (events_in > 0);
      checki "no malformed lines" 0 skipped;
      checkb "events out" true (events_out > 0);
      (* Spans from the live control plane made it into the export.
         Per-packet cache_hit/cache_miss events dominate [events_in]
         and are deliberately not exported, so compare against a fixed
         floor rather than a fraction of the input. *)
      checkb "has duration events" true (events_out > 20));
  (* The written file itself re-parses and passes the validator. *)
  (match Obs.Export.validate_file json with
  | Ok n -> checkb "validated events" true (n > 0)
  | Error e -> Alcotest.failf "exported file does not validate: %s" e);
  Sys.remove jsonl;
  Sys.remove json

(* --- metrics registry --- *)

(* An un-observed summary must export min/max as JSON null, not a
   fabricated 0.0 a dashboard would read as a real measurement. *)
let test_empty_summary_renders_null () =
  let registry = Metrics.create () in
  let s = Metrics.summary ~registry "latency.us" in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let json = Metrics.to_json (Metrics.snapshot ~registry ()) in
  checkb "empty min renders null" true (contains json "\"min\":null");
  checkb "empty max renders null" true (contains json "\"max\":null");
  Metrics.observe s 2.5;
  let json' = Metrics.to_json (Metrics.snapshot ~registry ()) in
  checkb "observed min is a number" true (contains json' "\"min\":2.5");
  checkb "no null once observed" false (contains json' "null")

let test_registry_kinds_and_diff () =
  let registry = Metrics.create () in
  let c = Metrics.counter ~registry "x.count" in
  Metrics.incr c;
  Metrics.add c 4;
  let g = Metrics.gauge ~registry "x.gauge" in
  Metrics.set_gauge g 2.5;
  let s = Metrics.summary ~registry "x.summary" in
  Metrics.observe s 1.0;
  Metrics.observe s 3.0;
  (* Same name and kind: the same instrument comes back. *)
  Metrics.incr (Metrics.counter ~registry "x.count");
  checki "counter accumulated" 6 (Metrics.counter_value c);
  (* Same name, different kind: refused. *)
  checkb "kind clash raises" true
    (match Metrics.gauge ~registry "x.count" with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let before = Metrics.snapshot ~registry () in
  Metrics.add c 10;
  Metrics.observe s 5.0;
  let after = Metrics.snapshot ~registry () in
  let delta = Metrics.diff ~before ~after in
  checkb "unchanged gauge dropped" true (List.assoc_opt "x.gauge" delta = None);
  (match List.assoc_opt "x.count" delta with
  | Some (Metrics.Counter_v 10) -> ()
  | _ -> Alcotest.fail "counter delta wrong");
  (match List.assoc_opt "x.summary" delta with
  | Some (Metrics.Summary_v { count = 1; sum; _ }) ->
      checkb "summary delta sum" true (Float.abs (sum -. 5.0) < 1e-9)
  | _ -> Alcotest.fail "summary delta wrong");
  (* Dumps include every instrument. *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let json = Metrics.to_json (Metrics.snapshot ~registry ()) in
  checkb "json has counter" true (contains json "\"x.count\": 16");
  let csv = Metrics.to_csv (Metrics.snapshot ~registry ()) in
  checkb "csv has gauge row" true (contains csv "x.gauge,gauge,1,2.5")

(* --- Flight recorder --- *)

module Flight = Obs.Flight

(* Distinct, recognisable events for ring-order assertions. *)
let numbered_event i = Trace.Epoch_tick { me = "ring.me"; epoch = i; interval = 0 }

let epoch_of = function
  | Trace.Epoch_tick { epoch; _ } -> epoch
  | _ -> Alcotest.fail "unexpected event shape in ring"

let test_flight_wraparound () =
  let ring = Flight.create ~capacity:4 () in
  checki "empty ring" 0 (List.length (Flight.events ring));
  for i = 1 to 10 do
    Flight.record ring (Simtime.of_ns (i * 1000)) (numbered_event i)
  done;
  (* Overwrites the oldest: the survivors are 7..10, oldest first. *)
  let got = List.map (fun (_, ev) -> epoch_of ev) (Flight.events ring) in
  Alcotest.(check (list int)) "last capacity events, oldest first"
    [ 7; 8; 9; 10 ] got;
  List.iteri
    (fun i (at, _) ->
      checki (Printf.sprintf "stamp %d" i) ((7 + i) * 1000) (Simtime.to_ns at))
    (Flight.events ring);
  Alcotest.(check (list int)) "last n" [ 9; 10 ]
    (List.map (fun (_, ev) -> epoch_of ev) (Flight.last ring 2));
  Flight.clear ring;
  checki "cleared" 0 (List.length (Flight.events ring))

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let test_flight_dump_is_valid_trace () =
  let ring = Flight.create ~capacity:8 () in
  List.iteri
    (fun i ev -> Flight.record ring (Simtime.of_ns ((i + 1) * 777)) ev)
    sample_events;
  let path = Filename.temp_file "flight" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let n = Flight.dump_jsonl ring oc in
      close_out oc;
      checki "dump count = ring size" (List.length (Flight.events ring)) n;
      checkb "every dumped line re-parses" true
        (List.for_all
           (fun line -> Option.is_some (Trace.of_jsonl line))
           (read_lines path)))

(* Installed recorder: the tee records every emitted event, and a
   monitor violation carries the last few as context. *)
let test_flight_install_and_monitor_context () =
  let ring = Flight.create ~capacity:16 () in
  let mon = Obs.Monitor.create ~mode:Obs.Monitor.Warn () in
  Obs.Monitor.attach mon;
  (* After the monitor: the tee runs newest-first, so the ring already
     holds the offending event when the monitor snapshots context. *)
  Flight.install ring;
  Fun.protect
    ~finally:(fun () ->
      Flight.uninstall ();
      Trace.disable ())
    (fun () ->
      let now = Simtime.of_ns 1_000 in
      Trace.emit ~now (numbered_event 1);
      Trace.emit ~now (numbered_event 2);
      (* Impossible TCAM occupancy: used > capacity trips tcam_capacity. *)
      Trace.emit ~now
        (Trace.Tcam_install { tenant; entries = 4; used = 99; capacity = 8 });
      checki "ring saw every event" 3 (List.length (Flight.events ring));
      match Obs.Monitor.violations mon with
      | [ v ] ->
          checkb "violation has context" true (v.Obs.Monitor.context <> []);
          checkb "offending event in context" true
            (List.exists
               (fun (_, ev) ->
                 match ev with Trace.Tcam_install _ -> true | _ -> false)
               v.Obs.Monitor.context);
          checkb "context renders" true
            (String.length (Obs.Monitor.context_to_string v) > 0)
      | vs -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length vs)))

(* The crash dump is deterministic, and it survives the run: two
   identical fabric-chaos runs freeze identical rings at the scripted
   crash, and the crash hook's file is not overwritten by the CLI's
   end-of-run dump to the untagged path. *)
let test_flight_crash_dump_deterministic () =
  let dir = Filename.temp_dir "flight" "" in
  let dump_path = Filename.concat dir "flight.jsonl" in
  let crash_path = Filename.concat dir "flight.crash.jsonl" in
  let crash_at = 2.0 in
  let run_once () =
    (* Span ids are allocated process-globally; restart them so both
       runs label identical spans identically. *)
    Obs.Span.reset ();
    let ring = Flight.create ~capacity:256 () in
    Flight.install ~dump_path ring;
    Fun.protect
      ~finally:(fun () ->
        Flight.uninstall ();
        Trace.disable ())
      (fun () ->
        let cfg =
          {
            Experiments.Fabric_chaos.default_config with
            Experiments.Fabric_chaos.racks = 2;
            crash_at;
            restart_at = 2.3;
          }
        in
        let r = Experiments.Fabric_chaos.run ~schedule:"none" ~config:cfg () in
        ignore (Flight.dump_installed ());
        r)
  in
  let jsonl events = List.map (fun (at, ev) -> Trace.to_jsonl at ev) events in
  let last_stamp path =
    match List.rev (read_lines path) with
    | line :: _ -> (
        match Trace.of_jsonl line with
        | Some (at, _) -> Simtime.to_sec at
        | None -> Alcotest.failf "%s: last line does not parse" path)
    | [] -> Alcotest.failf "%s is empty" path
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ dump_path; crash_path ];
      Sys.rmdir dir)
    (fun () ->
      let r1 = run_once () in
      let r2 = run_once () in
      match
        (r1.Experiments.Fabric_chaos.crash_flight,
         r2.Experiments.Fabric_chaos.crash_flight)
      with
      | Some c1, Some c2 ->
          checkb "snapshot non-empty" true (c1 <> []);
          Alcotest.(check (list string)) "snapshots identical" (jsonl c1)
            (jsonl c2);
          checkb "crash dump file named" true
            (r2.Experiments.Fabric_chaos.crash_dump = Some crash_path);
          Alcotest.(check (list string)) "crash file holds the crash-instant ring"
            (jsonl c2) (read_lines crash_path);
          checkb "crash file ends at or before the crash" true
            (last_stamp crash_path <= crash_at);
          checkb "end-of-run dump goes past the crash" true
            (last_stamp dump_path > crash_at)
      | _ -> Alcotest.fail "crash did not freeze a flight snapshot")

(* --- Labeled metric families --- *)

let test_labeled_cardinality_bound () =
  let registry = Metrics.create () in
  let fam =
    Metrics.counter_family ~registry ~max_series:2 ~label:"tenant" "t.hits"
  in
  Metrics.incr (Metrics.labeled_counter fam 1);
  Metrics.incr (Metrics.labeled_counter fam 2);
  Metrics.incr (Metrics.labeled_counter fam 3);
  Metrics.incr (Metrics.labeled_counter fam 4);
  Metrics.incr (Metrics.labeled_counter fam 1);
  let name_of k = Printf.sprintf "t.hits{tenant=\"%d\"}" k in
  checkb "series 1" true (Metrics.find ~registry (name_of 1) = Some (Metrics.Counter_v 2));
  checkb "series 2" true (Metrics.find ~registry (name_of 2) = Some (Metrics.Counter_v 1));
  checkb "key 3 not its own series" true (Metrics.find ~registry (name_of 3) = None);
  (* Keys beyond the bound share the overflow series. *)
  checkb "overflow absorbs the rest" true
    (Metrics.find ~registry "t.hits{tenant=\"__other__\"}"
    = Some (Metrics.Counter_v 2));
  Alcotest.(check (list (pair int int)))
    "values exclude overflow" [ (1, 2); (2, 1) ]
    (Metrics.labeled_counter_values fam);
  checkb "family enumerable" true
    (Metrics.family_names ~registry () = [ ("t.hits", "tenant") ])

let test_labeled_escaping_and_reopen () =
  let registry = Metrics.create () in
  let fam =
    Metrics.counter_family ~registry ~label:"name"
      ~render:(fun _ -> "evil\"}\\x\ny")
      "t.esc"
  in
  Metrics.incr (Metrics.labeled_counter fam 0);
  let expected = "t.esc{name=\"evil\\\"\\}\\\\x\\ny\"}" in
  checkb "hostile render escaped" true
    (Metrics.find ~registry expected = Some (Metrics.Counter_v 1));
  checks "base_name strips the label suffix" "t.esc" (Metrics.base_name expected);
  checks "plain names pass through" "t.esc" (Metrics.base_name "t.esc");
  (* Re-opening returns the same handle (shared key cache)... *)
  let fam' =
    Metrics.counter_family ~registry ~label:"name" ~render:string_of_int "t.esc"
  in
  Metrics.incr (Metrics.labeled_counter fam' 0);
  checkb "shared series through both handles" true
    (Metrics.find ~registry expected = Some (Metrics.Counter_v 2));
  (* ...and a conflicting label is refused. *)
  checkb "label mismatch refused" true
    (try
       ignore (Metrics.counter_family ~registry ~label:"other" "t.esc");
       false
     with Invalid_argument _ -> true)

(* Series names carry whatever a render returns; the JSON dump must
   still read back to exactly those names, UTF-8 and control bytes
   included. *)
let test_metrics_json_escapes_names () =
  let registry = Metrics.create () in
  let series base render =
    let fam =
      Metrics.counter_family ~registry ~label:"tenant" ~render:(fun _ -> render) base
    in
    Metrics.incr (Metrics.labeled_counter fam 0)
  in
  series "x.tx" "caf\xc3\xa9";
  series "x.rx" "a\001b";
  let names = [ "x.rx{tenant=\"a\001b\"}"; "x.tx{tenant=\"caf\xc3\xa9\"}" ] in
  Alcotest.(check (list string))
    "registered names" names
    (List.map fst (Metrics.snapshot ~registry ()));
  match Trace.parse_flat (Metrics.to_json (Metrics.snapshot ~registry ())) with
  | Some fields ->
      Alcotest.(check (list string)) "names read back" names (List.map fst fields)
  | None -> Alcotest.fail "metrics dump is not a flat JSON object"

(* --- SLO scoreboard --- *)

let test_slo_scoreboard_and_breach () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i =
      i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
    in
    go 0
  in
  Obs.Slo.reset ();
  let at = Simtime.of_sec in
  Fun.protect ~finally:Obs.Slo.reset (fun () ->
      (* Tenant 1: contracted 1 Mbit/s, delivers 2 Mbit over 1 s — a
         2x overshoot, far beyond the +25% tolerance. *)
      Obs.Slo.add_contract ~tenant:1 ~tx_bps:1e6 ();
      Obs.Slo.observe_goodput ~tenant:1 ~now:(at 1.0) 125_000;
      Obs.Slo.observe_goodput ~tenant:1 ~now:(at 2.0) 125_000;
      (* Tenant 2: within contract, but misses its p99 target. *)
      Obs.Slo.add_contract ~tenant:2 ~tx_bps:1e9 ~p99_us:100.0 ();
      Obs.Slo.observe_goodput ~tenant:2 ~now:(at 2.0) 1000;
      Obs.Slo.observe_goodput ~tenant:2 ~now:(at 3.0) 1000;
      for _ = 1 to 100 do
        Obs.Slo.observe_latency_us ~tenant:2 900.0
      done;
      match Obs.Slo.scoreboard () with
      | [ r1; r2 ] ->
          checki "tenant order" 1 r1.Obs.Slo.tenant;
          checkb "rate breach flagged" true (not r1.Obs.Slo.rate_ok);
          checkb "tenant 1 latency vacuously ok" true r1.Obs.Slo.latency_ok;
          checkb "achieved ~2 Mbit/s" true
            (Float.abs (r1.Obs.Slo.achieved_bps -. 2e6) < 1.0);
          checkb "tenant 2 rate ok" true r2.Obs.Slo.rate_ok;
          checkb "p99 breach flagged" true (not r2.Obs.Slo.latency_ok);
          (* Breaches surface through a monitor as tenant_slo. *)
          let mon = Obs.Monitor.create ~mode:Obs.Monitor.Warn () in
          Obs.Slo.check mon;
          checki "one violation per breach" 2
            (List.length (Obs.Monitor.violations mon));
          checkb "each breach stamped at its tenant's last delivery" true
            (List.map (fun v -> v.Obs.Monitor.at) (Obs.Monitor.violations mon)
            = [ at 2.0; at 3.0 ]);
          checkb "report renders both verdicts" true
            (let rep = Obs.Slo.report () in
             contains rep "RATE BREACH" && contains rep "P99 BREACH")
      | rows ->
          Alcotest.fail
            (Printf.sprintf "expected 2 scoreboard rows, got %d"
               (List.length rows)))

(* Deliveries are stamped with the delivering engine's clock: building
   a second testbed after the first must not freeze the first's
   goodput window at the second's idle clock. *)
let test_slo_stamps_each_testbed_clock () =
  Obs.Slo.reset ();
  Fun.protect ~finally:Obs.Slo.reset (fun () ->
      let tb = Experiments.Testbed.create ~server_count:2 () in
      let add server name octet =
        Experiments.Testbed.add_vm tb
          (Experiments.Testbed.vm_spec ~server ~name ~ip_last_octet:octet ())
      in
      let a = add 0 "client" 1 and b = add 1 "server" 2 in
      Experiments.Testbed.connect_tunnels tb;
      ignore (Experiments.Testbed.create ~server_count:1 ());
      Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
        ~response_size:64 ();
      ignore
        (Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
           ~vm:a.Host.Server.vm
           {
             Workloads.Transactions.Client.servers =
               [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
             connections = 1;
             outstanding = 1;
             request_size = 64;
             total_requests = None;
             src_port_base = 50_000;
           });
      Experiments.Testbed.run_for tb ~seconds:0.5;
      match Obs.Slo.scoreboard () with
      | [ r ] ->
          checkb "goodput delivered" true (r.Obs.Slo.goodput_bytes > 0);
          checkb "window spans the run" true
            (r.Obs.Slo.window_s > 0.4 && r.Obs.Slo.window_s <= 0.5);
          checkb "achieved rate measured" true
            (Float.is_finite r.Obs.Slo.achieved_bps)
      | rows ->
          Alcotest.fail
            (Printf.sprintf "expected 1 scoreboard row, got %d"
               (List.length rows)))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "jsonl round trip" test_jsonl_round_trip;
    t "jsonl rejects garbage" test_jsonl_rejects_garbage;
    t "jsonl reads fps_split with a dir key" test_jsonl_reads_fps_split_dir_key;
    t "pattern codec" test_pattern_codec;
    t "live run traces and metrics" test_trace_and_metrics_of_live_run;
    t "no-op sink identical results" test_noop_sink_identical_results;
    t "registry kinds and diff" test_registry_kinds_and_diff;
    t "empty summary renders null" test_empty_summary_renders_null;
    QCheck_alcotest.to_alcotest prop_of_jsonl_corruption_safe;
    t "jsonl rejects nan payloads" test_of_jsonl_nan_payloads;
    QCheck_alcotest.to_alcotest prop_jsonl_round_trip;
    t "p2 quantiles" test_p2_quantiles;
    t "timeseries rows and output" test_timeseries_rows_and_output;
    t "monitor catches violations" test_monitor_catches_violations;
    t "monitor cache coherence" test_monitor_cache_coherence;
    t "monitor accepts legal stream" test_monitor_accepts_legal_stream;
    t "monitor strict raises" test_monitor_strict_raises;
    t "monitor clean on live run" test_monitor_on_live_run_clean;
    t "monitor clean on table4" test_monitor_clean_table4;
    t "export nesting and validation" test_export_nesting_and_validation;
    t "export live run round trips" test_export_of_live_run_round_trips;
    t "flight ring wraparound" test_flight_wraparound;
    t "flight dump is valid trace" test_flight_dump_is_valid_trace;
    t "flight install and monitor context" test_flight_install_and_monitor_context;
    t "flight crash dump deterministic" test_flight_crash_dump_deterministic;
    t "labeled cardinality bound" test_labeled_cardinality_bound;
    t "labeled escaping and reopen" test_labeled_escaping_and_reopen;
    t "metrics json escapes names" test_metrics_json_escapes_names;
    t "slo scoreboard and breach" test_slo_scoreboard_and_breach;
    t "slo stamps each testbed's clock" test_slo_stamps_each_testbed_clock;
  ]
