module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Rng = Dcsim.Rng
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4
module De = Fastrak.Decision_engine

type result = {
  scenario : string;
  unit_ : string;
  params : (string * float) list;
  runs : int;
  ns_per_op : float;
  ops_per_sec : float;
  minor_words_per_op : float;
  baseline_ns_per_op : float option;
  budget : float option;
}

(* Repeat [f] until it has consumed [min_time] CPU seconds (at least
   [min_runs] times). One warmup run is discarded so first-call
   effects (hashtable sizing, lazy setup) do not skew the numbers. *)
let time_runs ~min_time ~min_runs f =
  f ();
  let t0 = Sys.time () in
  let w0 = Gc.minor_words () in
  let runs = ref 0 in
  while !runs < min_runs || Sys.time () -. t0 < min_time do
    f ();
    incr runs
  done;
  (!runs, Sys.time () -. t0, Gc.minor_words () -. w0)

let measure ~smoke ?baseline ?budget ?(params = []) ~unit_ ~ops scenario f =
  let min_time = if smoke then 0.02 else 0.2 in
  let per_op runs x = x /. float_of_int (runs * ops) in
  let runs, secs, words = time_runs ~min_time ~min_runs:2 f in
  let sec_per_op = per_op runs secs in
  {
    scenario;
    unit_;
    params;
    runs;
    ns_per_op = sec_per_op *. 1e9;
    ops_per_sec = (if sec_per_op > 0.0 then 1.0 /. sec_per_op else 0.0);
    minor_words_per_op = per_op runs words;
    baseline_ns_per_op =
      (* Baselines are the slow paths: one run of the quadratic decide
         takes over half a second at 10k candidates. *)
      Option.map
        (fun g ->
          let runs, secs, _ = time_runs ~min_time ~min_runs:1 g in
          per_op runs secs *. 1e9)
        baseline;
    budget;
  }

(* The zero-allocation bar. Any real per-op allocation (one [Some], one
   tuple) costs at least 2 whole words; the epsilon only absorbs what
   the timing loop itself might allocate per run, amortised over
   thousands of ops. *)
let zero_bar = 0.05

(* --- decision engine --- *)

let tenant = Netcore.Tenant.of_int 7

let ip_of_index i =
  Ipv4.of_octets 10 ((i lsr 16) land 0xFF) ((i lsr 8) land 0xFF) (i land 0xFF)

let mk_candidates rng n =
  List.init n (fun i ->
      {
        De.pattern =
          {
            Fkey.Pattern.any with
            Fkey.Pattern.src_ip = Some (ip_of_index i);
            src_port = Some (1024 + (i land 0xFFFF));
            tenant = Some tenant;
          };
        tenant;
        vm_ip = ip_of_index i;
        score = Rng.float rng 10_000.0;
        tcam_entries = 1 + Rng.int rng 4;
        (* ~5% of candidates belong to an all-or-none group. *)
        group =
          (if Rng.int rng 100 < 5 then Some (Rng.int rng (Stdlib.max 1 (n / 50)))
           else None);
      })

(* The currently-offloaded set: every k-th candidate (their previous
   interval's scores), which gives decide a large membership set to
   classify against. *)
let mk_offloaded candidates ~offloaded =
  let n = List.length candidates in
  let k = Stdlib.max 1 (n / Stdlib.max 1 offloaded) in
  List.filteri (fun i _ -> i mod k = 0) candidates
  |> List.map (fun (c : De.candidate) -> (c.De.pattern, c))

let decision_case ~smoke ?budget ~with_baseline ~candidates:n ~offloaded:o () =
  let rng = Rng.create ~seed:42 in
  let candidates = mk_candidates rng n in
  let offloaded = mk_offloaded candidates ~offloaded:o in
  let o = List.length offloaded in
  let tcam_free = n in
  (* Production callers (one ToR controller) reuse one scratch across
     decide calls; the bench does the same so minor_words_per_op prices
     the steady state, not first-call arena growth. *)
  let scratch = De.create_scratch () in
  let baseline () =
    ignore
      (De.decide_list_baseline ~candidates ~offloaded ~tcam_free ~min_score:100.0 ())
  in
  measure ~smoke ?budget
    ?baseline:(if with_baseline then Some baseline else None)
    ~params:
      [
        ("candidates", float_of_int n);
        ("offloaded", float_of_int o);
        ("tcam_free", float_of_int tcam_free);
      ]
    ~unit_:"call" ~ops:1
    (Printf.sprintf "decide/%dc-%do" n o)
    (fun () ->
      ignore
        (De.decide ~scratch ~candidates ~offloaded ~tcam_free ~min_score:100.0 ()))

(* 10% of the 682 978 words/call the committed BENCH_decision.json
   recorded before [Decision_engine.scratch] pooled the working
   state. *)
let decide_budget = 68297.8

(* The quadratic baseline is too slow to time at 50k, and at 10k on
   every test run. *)
let decision ~smoke =
  if smoke then
    [
      decision_case ~smoke ~with_baseline:true ~candidates:200 ~offloaded:50 ();
      decision_case ~smoke ~budget:decide_budget ~with_baseline:false
        ~candidates:10_000 ~offloaded:2_000 ();
    ]
  else
    [
      decision_case ~smoke ~with_baseline:true ~candidates:1_000 ~offloaded:200 ();
      decision_case ~smoke ~budget:decide_budget ~with_baseline:true
        ~candidates:10_000 ~offloaded:2_000 ();
      decision_case ~smoke ~with_baseline:false ~candidates:50_000 ~offloaded:10_000 ();
    ]

(* --- measurement engine --- *)

let measurement ~smoke =
  let aggregates, epochs = if smoke then (200, 4) else (10_000, 10) in
  let epoch_period = Simtime.span_ms 10.0 in
  let config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period;
      poll_gap = Simtime.span_ms 4.0;
      epochs_per_interval = 2;
      history_intervals = 3;
    }
  in
  let flows =
    Array.init aggregates (fun i ->
        Fkey.make ~src_ip:(ip_of_index i)
          ~dst_ip:(ip_of_index (i + 1))
          ~src_port:(1024 + (i land 0x3FFF))
          ~dst_port:11211 ~proto:Fkey.Tcp ~tenant)
  in
  let run_scenario () =
    let engine = Engine.create () in
    let polls = ref 0 in
    let poll () =
      incr polls;
      let k = !polls in
      Array.to_list (Array.map (fun f -> (f, k * 10, k * 1000)) flows)
    in
    let me =
      Fastrak.Measurement_engine.create ~engine ~config ~name:"bench" ~poll
        ~classify:(fun flow ->
          Some
            ( Fkey.Pattern.src_aggregate flow,
              {
                Fastrak.Measurement_engine.tenant;
                vm_ip = flow.Fkey.src_ip;
                direction = `Outgoing;
              } ))
    in
    Fastrak.Measurement_engine.start me;
    Engine.run
      ~until:(Simtime.add Simtime.zero
                (Simtime.span_scale (float_of_int epochs +. 0.5) epoch_period))
      engine;
    Fastrak.Measurement_engine.stop me
  in
  [
    measure ~smoke
      ~params:
        [ ("aggregates", float_of_int aggregates); ("epochs", float_of_int epochs) ]
      ~unit_:"epoch" ~ops:epochs
      (Printf.sprintf "me-epoch/%da-%de" aggregates epochs)
      run_scenario;
  ]

(* --- event queue --- *)

(* Drain the way the engine's loop does: [min_time], then [pop_min]. *)
let pop_all q =
  while (Dcsim.Event_queue.min_time q :> int) < (Simtime.never :> int) do
    ignore (Dcsim.Event_queue.pop_min q)
  done

let eventq_churn ~smoke ~events =
  let rng = Rng.create ~seed:7 in
  let times = Array.init events (fun _ -> Rng.int rng 1_000_000_000) in
  measure ~smoke
    ~params:[ ("events", float_of_int events) ]
    ~unit_:"event" ~ops:events
    (Printf.sprintf "eventq-churn/%d" events)
    (fun () ->
      let q = Dcsim.Event_queue.create () in
      Array.iter (fun ns -> ignore (Dcsim.Event_queue.push q (Simtime.of_ns ns) ns)) times;
      pop_all q)

let eventq_cancel_heavy ~smoke ~events =
  let rng = Rng.create ~seed:11 in
  let times = Array.init events (fun _ -> Rng.int rng 1_000_000_000) in
  (* Pre-draw which events die so the timed region draws nothing. *)
  let doomed = Array.init events (fun _ -> Rng.int rng 10 < 9) in
  measure ~smoke
    ~params:[ ("events", float_of_int events); ("cancel_fraction", 0.9) ]
    ~unit_:"event" ~ops:events
    (Printf.sprintf "eventq-cancel90/%d" events)
    (fun () ->
      let q = Dcsim.Event_queue.create () in
      let handles =
        Array.mapi
          (fun i ns -> (i, Dcsim.Event_queue.push q (Simtime.of_ns ns) ns))
          times
      in
      Array.iter
        (fun (i, h) -> if doomed.(i) then ignore (Dcsim.Event_queue.cancel q h))
        handles;
      pop_all q)

(* The retransmission-timer pattern: [timers] armed timers, and each
   step cancels one and re-arms it later, as TCP does on every ack.
   Neither step may allocate. *)
let eventq_rearm ~smoke ~timers =
  let steps = if smoke then 2_000 else 200_000 in
  let rng = Rng.create ~seed:13 in
  let delays = Array.init steps (fun _ -> 1 + Rng.int rng 1_000_000) in
  let q = Dcsim.Event_queue.create () in
  let handles =
    Array.init timers (fun i -> Dcsim.Event_queue.push q (Simtime.of_ns i) i)
  in
  let clock = ref 0 in
  measure ~smoke ~budget:zero_bar
    ~params:[ ("timers", float_of_int timers); ("steps", float_of_int steps) ]
    ~unit_:"rearm" ~ops:steps
    (Printf.sprintf "eventq-rearm/%d" timers)
    (fun () ->
      for s = 0 to steps - 1 do
        let i = s mod timers in
        ignore (Dcsim.Event_queue.cancel q handles.(i));
        handles.(i) <- Dcsim.Event_queue.push q (Simtime.of_ns (!clock + delays.(s))) i;
        incr clock
      done)

let eventqueue ~smoke =
  let events = if smoke then 2_000 else 200_000 in
  [
    eventq_churn ~smoke ~events;
    eventq_cancel_heavy ~smoke ~events;
    eventq_rearm ~smoke ~timers:1024;
  ]

(* --- observability: emission overhead (docs/BENCH.md) ---

   The zero-overhead contract says an untraced emission site costs one
   load and one branch. These scenarios price that claim and its
   alternatives: the same site with tracing off, with an in-process
   callback sink, and with the JSONL sink writing to /dev/null (so the
   cost measured is formatting + buffered output, not disk). *)

let obs_emit_site ~now ~vm i =
  (* A faithful emission site: guard first, construct only under a
     sink — exactly what the control plane's hot paths do. *)
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~now
      (Obs.Trace.Fps_split
         {
           vm_ip = vm;
           soft_bps = float_of_int i;
           hard_bps = 1e9;
           total_bps = 1e9;
           overflow_bps = 5e7;
         })

let obs_emit_case ~smoke ~sink ~install =
  let n = if smoke then 20_000 else 1_000_000 in
  let now = Simtime.of_ns 1_000 in
  let vm = ip_of_index 9 in
  install ();
  let r =
    measure ~smoke
      ~params:[ ("events", float_of_int n) ]
      ~unit_:"event" ~ops:n
      (Printf.sprintf "trace-emit/%s" sink)
      (fun () ->
        for i = 0 to n - 1 do
          obs_emit_site ~now ~vm i
        done)
  in
  Obs.Trace.disable ();
  r

let obs_span_case ~smoke =
  let n = if smoke then 10_000 else 500_000 in
  let now = Simtime.of_ns 1_000 in
  let sunk = ref 0 in
  Obs.Trace.use_callback (fun _ _ -> incr sunk);
  let r =
    measure ~smoke
      ~params:[ ("spans", float_of_int n) ]
      ~unit_:"span" ~ops:n "span-pair/callback"
      (fun () ->
        for _ = 1 to n do
          let s =
            Obs.Span.start ~now ~kind:"bench" ~name:"span" ~track:"bench" ()
          in
          Obs.Span.finish ~now s ~outcome:"done"
        done)
  in
  Obs.Trace.disable ();
  r

let obs_timeseries_case ~smoke =
  let n = if smoke then 20_000 else 1_000_000 in
  let collector = Obs.Timeseries.create () in
  let s = Obs.Timeseries.series ~collector "bench.latency" in
  let rng = Rng.create ~seed:21 in
  let samples = Array.init n (fun _ -> Rng.float rng 10_000.0) in
  measure ~smoke
    ~params:[ ("samples", float_of_int n) ]
    ~unit_:"sample" ~ops:n "ts-observe/p2x3"
    (fun () -> Array.iter (fun v -> Obs.Timeseries.observe s v) samples)

(* Recording into the always-on flight ring must not allocate. *)
let obs_flight_case ~smoke =
  let n = if smoke then 20_000 else 1_000_000 in
  let capacity = 4096 in
  let now = Simtime.of_ns 1_000 in
  let ring = Obs.Flight.create ~capacity () in
  (* One preallocated event re-recorded n times: prices the ring's
     record step alone (two array stores and an index bump) — the
     recorder receives already-constructed events from the tee, so
     this is exactly its steady-state per-event cost. *)
  let ev =
    Obs.Trace.Fps_split
      {
        vm_ip = ip_of_index 9;
        soft_bps = 1e8;
        hard_bps = 1e9;
        total_bps = 1e9;
        overflow_bps = 5e7;
      }
  in
  measure ~smoke ~budget:zero_bar
    ~params:[ ("capacity", float_of_int capacity); ("events", float_of_int n) ]
    ~unit_:"event" ~ops:n "flight-record"
    (fun () ->
      for _ = 1 to n do
        Obs.Flight.record ring now ev
      done)

(* Bumping an already-seen labeled series must not allocate either. *)
let obs_labeled_case ~smoke =
  let n = if smoke then 20_000 else 1_000_000 in
  (* A local registry so the bench family does not pollute the default
     registry (whose contents the metrics-doc check audits). Eight keys
     round-robin: after the first lap every increment takes the
     already-seen path — one int-keyed hash probe. *)
  let registry = Obs.Metrics.create () in
  let fam =
    Obs.Metrics.counter_family ~registry ~label:"tenant" "bench.labeled"
  in
  measure ~smoke ~budget:zero_bar
    ~params:[ ("series", 8.0); ("increments", float_of_int n) ]
    ~unit_:"incr" ~ops:n "labeled-counter-incr"
    (fun () ->
      for i = 0 to n - 1 do
        Obs.Metrics.incr (Obs.Metrics.labeled_counter fam (i land 7))
      done)

let obs ~smoke =
  let null = open_out "/dev/null" in
  let results =
    [
      obs_emit_case ~smoke ~sink:"off" ~install:Obs.Trace.disable;
      obs_emit_case ~smoke ~sink:"callback"
        ~install:(fun () -> Obs.Trace.use_callback (fun _ _ -> ()));
      obs_emit_case ~smoke ~sink:"jsonl"
        ~install:(fun () -> Obs.Trace.use_jsonl null);
      obs_span_case ~smoke;
      obs_timeseries_case ~smoke;
      obs_flight_case ~smoke;
      obs_labeled_case ~smoke;
    ]
  in
  close_out null;
  results

(* --- vswitch datapath flow cache (docs/BENCH.md) ---

   Prices the two-tier cache against the work it avoids: a full masked
   classification over the VIF's ACL list (what every upcall pays).
   The rule set is shaped like a real policy — a pile of non-matching
   port carve-outs over a terminal allow-all — so the uncached scan is
   O(rules) while the deciding scan examines only dst_port, giving the
   cache wide megaflows. *)

module Cache = Vswitch.Flow_cache

let mk_cache_policy ~rules =
  let p = Rules.Policy.create ~tenant ~vm_ip:(ip_of_index 1) () in
  for i = 1 to rules - 1 do
    Rules.Policy.add_acl p
      (Rules.Security_rule.make ~priority:9
         { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some (40_000 + i) }
         Deny)
  done;
  Rules.Policy.add_acl p
    (Rules.Security_rule.make ~priority:5 Fkey.Pattern.any Allow);
  p

(* Distinct 5-tuples spread over 64 dst ports: 10k flows condense into
   64 megaflow entries (the mask is dst_port only). *)
let mk_cache_flows n =
  Array.init n (fun i ->
      Fkey.make ~src_ip:(ip_of_index i) ~dst_ip:(ip_of_index (n + i))
        ~src_port:(1024 + (i land 0xFFFF))
        ~dst_port:(80 + (i land 63))
        ~proto:Fkey.Tcp ~tenant)

let cache_config ~exact ~megaflow =
  {
    Cache.exact_capacity = exact;
    megaflow_capacity = megaflow;
    (* Effectively no idle eviction: the bench drives no engine clock. *)
    idle_timeout = Simtime.span_sec 1e6;
    revalidate_period = Simtime.span_ms 500.0;
  }

let cache_tier_case ~smoke ~flows:n ~rules ~label ~exact_capacity =
  let p = mk_cache_policy ~rules in
  let flows = mk_cache_flows n in
  let now = Simtime.of_ms 1.0 in
  let c =
    Cache.create
      ~config:(cache_config ~exact:exact_capacity ~megaflow:4096)
      ~name:"bench" ~policy:p ()
  in
  Array.iter (fun f -> ignore (Cache.install c f ~now)) flows;
  measure ~smoke
    (* What every lookup would cost with no cache at all: the upcall's
       classification scan. *)
    ~baseline:(fun () ->
      Array.iter (fun f -> ignore (Rules.Policy.classify_masked p f)) flows)
    ~params:
      [
        ("flows", float_of_int n);
        ("acl_rules", float_of_int rules);
        ("exact_entries", float_of_int (Cache.exact_count c));
        ("megaflow_entries", float_of_int (Cache.megaflow_count c));
      ]
    ~unit_:"lookup" ~ops:n
    (Printf.sprintf "cache/%s-%df-%dr" label n rules)
    (fun () -> Array.iter (fun f -> ignore (Cache.lookup c f ~now)) flows)

(* Steady-state churn with the exact tier capped well below the flow
   count: every megaflow hit promotes into the exact tier, which
   evicts LRU-style on each insert. Occupancy must stay at the cap. *)
let cache_churn_case ~smoke ~flows:n ~rules ~capacity =
  let p = mk_cache_policy ~rules in
  let flows = mk_cache_flows n in
  let now = Simtime.of_ms 1.0 in
  let c =
    Cache.create
      ~config:(cache_config ~exact:capacity ~megaflow:128)
      ~name:"bench.churn" ~policy:p ()
  in
  let r =
    measure ~smoke ~unit_:"lookup" ~ops:n
      (Printf.sprintf "cache/capped-lru-%df-%dcap" n capacity)
      (fun () ->
        Array.iter
          (fun f ->
            match Cache.lookup c f ~now with
            | Some _ -> ()
            | None -> ignore (Cache.install c f ~now))
          flows)
  in
  (* Read after the runs: occupancy and evictions are what they left. *)
  {
    r with
    params =
      [
        ("flows", float_of_int n);
        ("acl_rules", float_of_int rules);
        ("exact_capacity", float_of_int capacity);
        ("exact_entries", float_of_int (Cache.exact_count c));
        ("megaflow_entries", float_of_int (Cache.megaflow_count c));
        ("evictions", float_of_int (Cache.evictions c));
      ];
  }

let vswitch ~smoke =
  let flows, rules, capacity = if smoke then (500, 64, 128) else (10_000, 256, 1_024) in
  [
    cache_tier_case ~smoke ~flows ~rules ~label:"exact" ~exact_capacity:(2 * flows);
    (* exact tier disabled: every lookup is served by the megaflow
       tier — the cold-flow fast path. *)
    cache_tier_case ~smoke ~flows ~rules ~label:"megaflow" ~exact_capacity:0;
    cache_churn_case ~smoke ~flows ~rules ~capacity;
  ]

(* --- zero-allocation packet hot path (docs/BENCH.md) ---

   Prices the per-packet primitives that the datapath executes on
   every forwarded packet in the steady state: the exact-tier cache
   hit, flow-key hashing, the NIC flow placer's cached rule lookup and
   the ToR's VRF probe. All must allocate nothing: each carries the
   zero bar as its budget. *)

let hotpath_cache_hit ~smoke =
  let n = if smoke then 500 else 10_000 in
  let rules = if smoke then 64 else 256 in
  let p = mk_cache_policy ~rules in
  let flows = mk_cache_flows n in
  let now = Simtime.of_ms 1.0 in
  let c =
    Cache.create
      ~config:(cache_config ~exact:(2 * n) ~megaflow:4096)
      ~name:"bench.hot" ~policy:p ()
  in
  Array.iter (fun f -> ignore (Cache.install c f ~now)) flows;
  (* Warm once so every timed probe is a steady-state hit. *)
  let run () = Array.iter (fun f -> ignore (Cache.find_exact c f ~now)) flows in
  run ();
  measure ~smoke ~budget:zero_bar
    ~params:
      [
        ("flows", float_of_int n);
        ("acl_rules", float_of_int rules);
        ("exact_entries", float_of_int (Cache.exact_count c));
      ]
    ~unit_:"lookup" ~ops:n "hotpath/cache-hit-exact" run

let mk_hot_keys n =
  Array.init n (fun i ->
      Fkey.make ~src_ip:(ip_of_index i)
        ~dst_ip:(ip_of_index (n + i))
        ~src_port:((1024 + i) land 0xFFFF)
        ~dst_port:(80 + (i land 63))
        ~proto:(match i land 3 with 0 -> Fkey.Tcp | 1 -> Fkey.Udp | 2 -> Fkey.Icmp | _ -> Fkey.Other (i land 127))
        ~tenant)

let hotpath_fkey_hash ~smoke =
  let n = if smoke then 2_000 else 65_536 in
  let flows = mk_hot_keys n in
  let sink = ref 0 in
  measure ~smoke ~budget:zero_bar
    ~params:[ ("keys", float_of_int n) ]
    ~unit_:"hash" ~ops:n "hotpath/fkey-hash"
    (fun () -> Array.iter (fun f -> sink := !sink lxor Fkey.hash f) flows)

let hotpath_rule_cache ~smoke =
  let n = if smoke then 500 else 10_000 in
  let rules = if smoke then 64 else 250 in
  let table = Rules.Rule_table.create () in
  for i = 0 to rules - 1 do
    ignore
      (Rules.Rule_table.insert table
         ~pattern:
           { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some (20_000 + i) }
         ~priority:i ())
  done;
  let flows = mk_hot_keys n in
  (* Warm the exact cache: the timed loop is all fast-path hits, the
     NIC flow placer's whole per-packet call. *)
  let run () = Array.iter (fun f -> ignore (Rules.Rule_table.find table f)) flows in
  run ();
  measure ~smoke ~budget:zero_bar
    ~params:[ ("flows", float_of_int n); ("rules", float_of_int rules) ]
    ~unit_:"lookup" ~ops:n "hotpath/rule-cache-hit" run

(* The ToR express hop's VRF probe in soak-mixed's shape: 120 entries
   under 2 masks (source and destination aggregates). Even probes hit
   an entry; odd ones, the same flow with both ports moved, fall to
   the default deny. *)
let hotpath_vrf_classify ~smoke =
  let entries = 120 and n = if smoke then 2_000 else 65_536 in
  let vrf =
    Tor.Vrf.create ~engine:(Engine.create ()) ~tenant
      ~tcam:(Tor.Tcam.create ~capacity:entries)
  in
  let keys = mk_hot_keys entries in
  Array.iteri
    (fun i k ->
      let acl_pattern =
        (if i land 1 = 0 then Fkey.Pattern.src_aggregate else Fkey.Pattern.dst_aggregate) k
      in
      let queue = i land 7 in
      ignore
        (Tor.Vrf.install vrf
           { Rules.Rule_compiler.tenant; acl_pattern; queue; tunnels = []; tcam_entries = 1 }))
    keys;
  let probes =
    Array.init n (fun i ->
        let k = keys.(i / 2 mod entries) in
        if i land 1 = 0 then k
        else { k with Fkey.src_port = k.src_port + 1; dst_port = k.dst_port + 1 })
  in
  let sink = ref 0 in
  measure ~smoke ~budget:zero_bar
    ~params:[ ("entries", float_of_int entries); ("masks", 2.0); ("probes", float_of_int n) ]
    ~unit_:"probe" ~ops:n "hotpath/vrf-classify"
    (fun () -> Array.iter (fun f -> sink := !sink + Tor.Vrf.classify vrf f) probes)

let hotpath ~smoke =
  [
    hotpath_cache_hit ~smoke;
    hotpath_fkey_hash ~smoke;
    hotpath_rule_cache ~smoke;
    hotpath_vrf_classify ~smoke;
  ]

(* --- workload generator --- *)

(* A standalone source VM whose egress discards: the scenarios price
   the generator's own work (port allocation, size draw, packet
   construction, pacing events), not the vswitch datapath — the
   hotpath group already prices that. *)
let loadgen_vm ~engine ~name ~octet =
  Host.Vm.create ~engine ~name ~vcpus:2 ~tenant
    ~ip:(Ipv4.of_octets 10 7 9 octet)
    ~mac:(Netcore.Mac.of_int (0x9000 + octet))

(* Launch-to-completion cost of one generated flow: every flow is a
   single message, and the engine drains between batches so ports
   recycle and the queue never grows across runs. ops_per_sec is the
   flows/sec the generator sustains. A launch allocates the packet
   record, the flow key and the pacing closure (the gate reads about
   74 words); a per-flow history buffer would blow the budget. *)
let loadgen_launch_case ~smoke =
  let engine = Engine.create ~seed:7 () in
  let vm = loadgen_vm ~engine ~name:"bench.gen" ~octet:1 in
  let config =
    {
      Workloads.Flowgen.default_config with
      Workloads.Flowgen.mean_flow_bytes = 1448.0;
      message_gap = Simtime.span_us 1.0;
    }
  in
  let fg =
    Workloads.Flowgen.create ~engine ~vm ~dst_ip:(Ipv4.of_octets 10 7 9 99)
      ~dst_port_base:30000 config
  in
  let n = if smoke then 2_000 else 20_000 in
  measure ~smoke ~budget:160.0
    ~params:[ ("flows_per_run", float_of_int n); ("message_bytes", 1448.0) ]
    ~unit_:"flow" ~ops:n "loadgen/flow-launch"
    (fun () ->
      for _ = 1 to n do
        Workloads.Flowgen.launch fg
      done;
      Engine.run engine)

(* Concurrency scaling: pile up live flows (long pacing gaps, nothing
   completes) and show the generator's own state is flat — the same
   port bitset at quarter fill and at full fill. *)
let loadgen_live_case ~smoke =
  let per_gen = if smoke then 2_000 else 55_000 in
  let words_quarter = ref 0 and words_full = ref 0 and live = ref 0 in
  let build_and_fill () =
    let engine = Engine.create ~seed:7 () in
    let mk i =
      let vm =
        loadgen_vm ~engine ~name:(Printf.sprintf "bench.live%d" i) ~octet:(2 + i)
      in
      Workloads.Flowgen.create ~engine ~vm ~dst_ip:(Ipv4.of_octets 10 7 9 99)
        ~dst_port_base:30000
        {
          Workloads.Flowgen.default_config with
          (* Multi-message flows with hour-long gaps: all stay live. *)
          Workloads.Flowgen.mean_flow_bytes = 10.0 *. 1448.0;
          message_gap = Simtime.span_sec 3600.0;
        }
    in
    let gens = [| mk 0; mk 1 |] in
    let state_words () =
      Array.fold_left
        (fun acc g -> acc + Workloads.Flowgen.state_words g)
        0 gens
    in
    for i = 1 to per_gen do
      Array.iter Workloads.Flowgen.launch gens;
      if i = per_gen / 4 then words_quarter := state_words ()
    done;
    words_full := state_words ();
    live :=
      Array.fold_left (fun acc g -> acc + Workloads.Flowgen.live_flows g) 0 gens
  in
  let r =
    measure ~smoke ~unit_:"flow" ~ops:(2 * per_gen)
      (Printf.sprintf "loadgen/%dk-live" (2 * per_gen / 1000))
      build_and_fill
  in
  {
    r with
    params =
      [
        ("live_flows", float_of_int !live);
        ("state_words_quarter_fill", float_of_int !words_quarter);
        ("state_words_full_fill", float_of_int !words_full);
      ];
  }

(* One tenant churn event: a two-phase departure (demote + detach
   profile + abort timer) immediately committed to a new server, then
   the engine drains the timer bookkeeping. The gate reads about 62
   words; a per-churn rule copy would blow the budget. *)
let loadgen_churn_case ~smoke =
  let engine = Engine.create ~seed:7 () in
  let tb = Testbed.create ~engine ~server_count:2 () in
  let attached =
    Testbed.add_vm tb
      (Testbed.vm_spec ~server:0 ~name:"bench.churn" ~ip_last_octet:1 ())
  in
  let rm =
    Fastrak.Rule_manager.create ~engine ~config:Fastrak.Config.default
      ~tor:tb.Testbed.tor
      ~servers:(Array.to_list tb.Testbed.servers)
      ()
  in
  let vm_ip = Host.Vm.ip attached.Host.Server.vm in
  let vm_tenant = Host.Vm.tenant attached.Host.Server.vm in
  let servers = tb.Testbed.servers in
  let cursor = ref 0 in
  let n = if smoke then 200 else 2_000 in
  measure ~smoke ~budget:100.0
    ~params:[ ("events_per_run", float_of_int n) ]
    ~unit_:"migration" ~ops:n "loadgen/churn-event"
    (fun () ->
      for _ = 1 to n do
        let mg =
          Fastrak.Rule_manager.begin_vm_migration rm ~tenant:vm_tenant ~vm_ip
        in
        let i = !cursor in
        cursor := (i + 1) mod Array.length servers;
        ignore
          (Fastrak.Rule_manager.commit_vm_migration rm mg
             ~new_server:(Host.Server.name servers.(i)))
      done;
      Engine.run engine)

(* The diurnal curve sample on the arrival hot path: a sin and a
   couple of float ops. Its budget is one boxed float argument and
   result across the module boundary; a rate table or a per-sample
   closure would not fit. *)
let loadgen_curve_case ~smoke =
  let n = if smoke then 100_000 else 1_000_000 in
  let curve = Workloads.Loadgen.Sinusoid { trough = 0.3 } in
  measure ~smoke ~budget:6.0
    ~params:[ ("samples_per_run", float_of_int n) ]
    ~unit_:"sample" ~ops:n "loadgen/curve-sample"
    (fun () ->
      for i = 1 to n do
        ignore
          (Workloads.Loadgen.curve_multiplier curve
             ~frac:(float_of_int i /. float_of_int n))
      done)

let workloads ~smoke =
  [
    loadgen_launch_case ~smoke;
    loadgen_live_case ~smoke;
    loadgen_churn_case ~smoke;
    loadgen_curve_case ~smoke;
  ]

(* --- event core ---

   One static closure on shard 0 reschedules itself [span] later, so an
   event should allocate nothing at all. The cluster's
   lookahead equals [span], so with 17 shards each window holds exactly
   one event while 16 shards idle through it: any allocation per shard
   per window costs >= 32 words per event. *)
let engine_loop_case ~smoke ~shards =
  let events = if smoke then 20_000 else 1_000_000 in
  let span = Simtime.span_ns 1_000 in
  let engines = Array.init shards (fun _ -> Engine.create ()) in
  let cluster = Dcsim.Cluster.create ~shards:engines in
  Dcsim.Cluster.constrain_lookahead cluster span;
  measure ~smoke ~budget:zero_bar
    ~params:[ ("events", float_of_int events); ("shards", float_of_int shards) ]
    ~unit_:"event" ~ops:events
    (Printf.sprintf "engine-loop/%dshards" shards)
    (fun () ->
      let left = ref events in
      let rec tick () =
        decr left;
        if !left > 0 then ignore (Engine.after engines.(0) span tick)
      in
      ignore (Engine.after engines.(0) span tick);
      Dcsim.Cluster.run cluster)

(* Events/sec of the whole datacenter simulation vs shard count. Each
   op is one simulation event; the baseline runs the identical topology
   and workload on a single engine, so ns_per_op vs baseline prices the
   conservative-lookahead scheduling overhead. *)
let engine_case ~smoke ~racks =
  let config =
    {
      Dcscale.default_config with
      Dcscale.racks;
      duration = (if smoke then 0.05 else 0.25);
      express_messages = (if smoke then 32 else 128);
      soft_messages = (if smoke then 8 else 32);
    }
  in
  (* One untimed run learns the event count that prices an op; the
     simulation is deterministic, so every timed run repeats it. *)
  let first = Dcscale.run ~config () in
  measure ~smoke
    ~baseline:(fun () ->
      ignore (Dcscale.run ~config:{ config with Dcscale.sharded = false } ()))
    ~params:
      [
        ("racks", float_of_int racks);
        ("shards", float_of_int first.Dcscale.shard_count);
        ("windows", float_of_int first.Dcscale.windows);
        ("sim_seconds", config.Dcscale.duration);
      ]
    ~unit_:"event" ~ops:first.Dcscale.events
    (Printf.sprintf "engine/%dracks-%dshards" racks first.Dcscale.shard_count)
    (fun () -> ignore (Dcscale.run ~config ()))

let engine ~smoke =
  let rack_counts = if smoke then [ 1; 4 ] else [ 1; 4; 16; 64 ] in
  List.map (fun shards -> engine_loop_case ~smoke ~shards) [ 1; 17 ]
  @ List.map (fun racks -> engine_case ~smoke ~racks) rack_counts

let groups =
  [
    ("decision", decision);
    ("measurement", measurement);
    ("eventqueue", eventqueue);
    ("obs", obs);
    ("vswitch", vswitch);
    ("hotpath", hotpath);
    ("engine", engine);
    ("workloads", workloads);
  ]

(* --- JSON emission ---

   Nothing here is escaped: scenario names, units and parameter keys
   are literals or built from integers, and the bench name is a key of
   [groups]. *)

let write_json ~bench ~out_dir results =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\n  \"bench\": \"%s\",\n  \"schema_version\": 1,\n  \"scenarios\": [\n"
    bench;
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b "    {\n      \"scenario\": \"%s\",\n      \"unit\": \"%s\",\n"
        r.scenario r.unit_;
      Printf.bprintf b "      \"params\": {%s},\n"
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %g" k v) r.params));
      Printf.bprintf b
        "      \"runs\": %d,\n      \"ns_per_op\": %.1f,\n      \"ops_per_sec\": %.1f,\n      \"minor_words_per_op\": %.1f"
        r.runs r.ns_per_op r.ops_per_sec r.minor_words_per_op;
      (match r.baseline_ns_per_op with
      | Some bl ->
          Printf.bprintf b
            ",\n      \"baseline_ns_per_op\": %.1f,\n      \"speedup_vs_baseline\": %.2f\n"
            bl
            (if r.ns_per_op > 0.0 then bl /. r.ns_per_op else 0.0)
      | None -> Buffer.add_char b '\n');
      Buffer.add_string b "    }")
    results;
  Buffer.add_string b "\n  ]\n}\n";
  let path = Filename.concat out_dir ("BENCH_" ^ bench ^ ".json") in
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b);
  path
