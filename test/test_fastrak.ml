(* Tests for the FasTrak control plane: FPS, scoring, decision engine,
   measurement engine, demand profiles, and the full rule manager loop. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf tol = Alcotest.check (Alcotest.float tol)
let tenant = Netcore.Tenant.of_int 7

(* --- FPS --- *)

let test_fps_proportional () =
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 3e8;
        demand_hard_bps = 1e8;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkf 1e6 "soft 3/4" 7.5e8 split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps;
  checkf 1e6 "hard 1/4" 2.5e8 split.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps

let test_fps_sums_to_total_plus_overflow () =
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:5e7 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 9e8;
        demand_hard_bps = 1e8;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkf 1e6 "Ls + Lh = total + 2O" (1e9 +. 1e8)
    (split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps
    +. split.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps)

let test_fps_floor () =
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 0.0;
        demand_hard_bps = 1e9;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkb "soft floored at 5%" true
    (split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps >= 0.05 *. 1e9 -. 1.0)

let test_fps_no_demand_even_split () =
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 0.0;
        demand_hard_bps = 0.0;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkf 1e6 "even" 5e8 split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps

let test_fps_maxed_grows () =
  (* A maxed hardware path must win share even if its measured demand
     equals the soft side (it is clipped by its own limit). *)
  let current =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 5e8;
        demand_hard_bps = 5e8;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  let next =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:0.0 ~current:(Some current)
      {
        Fastrak.Fps.demand_soft_bps = 4e8;
        demand_hard_bps = 4e8;
        soft_maxed = false;
        hard_maxed = true;
      }
  in
  checkb "hard grows past half" true
    (next.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps
    > current.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps)

let test_fps_unlimited_total () =
  let split =
    Fastrak.Fps.split ~total_bps:infinity ~overflow_bps:0.0 ~current:None
      {
        Fastrak.Fps.demand_soft_bps = 1.0;
        demand_hard_bps = 1.0;
        soft_maxed = false;
        hard_maxed = false;
      }
  in
  checkb "both unlimited" true
    (Rules.Rate_limit_spec.is_unlimited split.Fastrak.Fps.soft
    && Rules.Rate_limit_spec.is_unlimited split.Fastrak.Fps.hard)

let test_fps_maxed_unlimited_current () =
  (* Regression: a maxed side whose current limit is unlimited used to
     boost to 1.25 * infinity, making share_soft = inf/inf = NaN and
     installing NaN into both limiters. The boost must fall back to
     measured demand. *)
  let current =
    Some
      {
        Fastrak.Fps.soft = Rules.Rate_limit_spec.unlimited;
        hard = Rules.Rate_limit_spec.unlimited;
      }
  in
  let split =
    Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:5e7 ~current
      {
        Fastrak.Fps.demand_soft_bps = 4e8;
        demand_hard_bps = 2e8;
        soft_maxed = true;
        hard_maxed = true;
      }
  in
  let soft = split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps in
  let hard = split.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps in
  checkb "soft finite" true (Float.is_finite soft);
  checkb "hard finite" true (Float.is_finite hard);
  (* With the boost disarmed the split follows measured demand 2:1. *)
  checkf 1e6 "soft by demand" (2.0 /. 3.0 *. 1e9 +. 5e7) soft;
  checkf 1e6 "hard by demand" (1.0 /. 3.0 *. 1e9 +. 5e7) hard

let prop_fps_split_finite =
  QCheck2.Test.make ~name:"fps split never NaN/negative" ~count:1000
    QCheck2.Gen.(
      let demand =
        oneof [ pure 0.0; float_bound_exclusive 2e9; pure 1e15; pure neg_infinity ]
      in
      quad demand demand (pair bool bool) (pair (int_range 0 2) (int_range 0 1)))
    (fun (ds, dh, (sm, hm), (cur_kind, ov_kind)) ->
      let overflow = if ov_kind = 0 then 0.0 else 5e7 in
      let current =
        match cur_kind with
        | 0 -> None
        | 1 ->
            (* Both sides unlimited: the maxed-boost corner. *)
            Some
              {
                Fastrak.Fps.soft = Rules.Rate_limit_spec.unlimited;
                hard = Rules.Rate_limit_spec.unlimited;
              }
        | _ ->
            Some
              {
                Fastrak.Fps.soft = Rules.Rate_limit_spec.make ~rate_bps:2e8 ();
                hard = Rules.Rate_limit_spec.make ~rate_bps:8e8 ();
              }
      in
      let split =
        Fastrak.Fps.split ~total_bps:1e9 ~overflow_bps:overflow ~current
          {
            Fastrak.Fps.demand_soft_bps = ds;
            demand_hard_bps = dh;
            soft_maxed = sm;
            hard_maxed = hm;
          }
      in
      let ok v = Float.is_finite v && v >= 0.0 in
      ok split.Fastrak.Fps.soft.Rules.Rate_limit_spec.rate_bps
      && ok split.Fastrak.Fps.hard.Rules.Rate_limit_spec.rate_bps)

(* --- Scoring --- *)

let test_scoring () =
  checkf 1e-9 "S = n*pps" 600.0
    (Fastrak.Scoring.score ~epochs_active:3 ~median_pps:200.0 ());
  checkf 1e-9 "priority multiplies" 1200.0
    (Fastrak.Scoring.score ~epochs_active:3 ~median_pps:200.0 ~priority:2.0 ());
  checkf 1e-9 "inactive scores zero" 0.0
    (Fastrak.Scoring.score ~epochs_active:0 ~median_pps:5000.0 ())

let test_scoring_mfu_not_elephant () =
  (* A service with 1000 small flows at ~3 packets each (3000 pps) must
     outrank a single elephant at 300 pps, regardless of bytes. *)
  let service = Fastrak.Scoring.score ~epochs_active:6 ~median_pps:3000.0 () in
  let elephant = Fastrak.Scoring.score ~epochs_active:6 ~median_pps:300.0 () in
  checkb "pps rules" true (service > elephant)

(* --- Decision engine --- *)

let candidate ?(score = 100.0) ?(entries = 2) ?(group = None) ~port () =
  {
    Fastrak.Decision_engine.pattern =
      { Fkey.Pattern.any with Fkey.Pattern.src_port = Some port };
    tenant;
    vm_ip = Ipv4.of_string "10.7.0.1";
    score;
    tcam_entries = entries;
    group;
  }

let decide ?(offloaded = []) ?(tcam_free = 100) ?(max_offloads = None)
    ?(min_score = 1.0) candidates =
  Fastrak.Decision_engine.decide ~candidates ~offloaded ~tcam_free ~max_offloads
    ~min_score ()

let ports l =
  List.sort compare
    (List.filter_map
       (fun (c : Fastrak.Decision_engine.candidate) ->
         c.Fastrak.Decision_engine.pattern.Fkey.Pattern.src_port)
       l)

let test_decide_ranks_by_score () =
  let d =
    decide ~tcam_free:4
      [ candidate ~score:10.0 ~port:1 (); candidate ~score:30.0 ~port:2 ();
        candidate ~score:20.0 ~port:3 () ]
  in
  Alcotest.check (Alcotest.list Alcotest.int) "top two fit" [ 2; 3 ]
    (ports d.Fastrak.Decision_engine.offload)

let test_decide_respects_capacity () =
  let d = decide ~tcam_free:3 [ candidate ~entries:2 ~port:1 (); candidate ~entries:2 ~port:2 () ] in
  checki "only one fits" 1 (List.length d.Fastrak.Decision_engine.offload)

let test_decide_min_score () =
  let d = decide ~min_score:50.0 [ candidate ~score:10.0 ~port:1 () ] in
  checki "below threshold" 0 (List.length d.Fastrak.Decision_engine.offload)

let test_decide_max_offloads () =
  let d =
    decide ~max_offloads:(Some 1)
      [ candidate ~score:10.0 ~port:1 (); candidate ~score:30.0 ~port:2 () ]
  in
  Alcotest.check (Alcotest.list Alcotest.int) "one only" [ 2 ]
    (ports d.Fastrak.Decision_engine.offload)

let test_decide_demotes_losers () =
  let old = candidate ~score:5.0 ~port:1 () in
  let d =
    decide
      ~offloaded:[ (old.Fastrak.Decision_engine.pattern, old) ]
      ~tcam_free:0
      [ candidate ~score:50.0 ~port:2 (); old ]
  in
  (* The freed entries of the demoted candidate fund the new winner. *)
  Alcotest.check (Alcotest.list Alcotest.int) "new winner" [ 2 ]
    (ports d.Fastrak.Decision_engine.offload);
  Alcotest.check (Alcotest.list Alcotest.int) "old demoted" [ 1 ]
    (ports d.Fastrak.Decision_engine.demote)

let test_decide_keeps_winners () =
  let old = candidate ~score:50.0 ~port:1 () in
  let d =
    decide
      ~offloaded:[ (old.Fastrak.Decision_engine.pattern, old) ]
      ~tcam_free:10 [ old; candidate ~score:10.0 ~port:2 () ]
  in
  Alcotest.check (Alcotest.list Alcotest.int) "kept" [ 1 ]
    (ports d.Fastrak.Decision_engine.keep);
  checkb "not re-offloaded" true
    (not (List.exists (fun c -> ports [ c ] = [ 1 ]) d.Fastrak.Decision_engine.offload))

let test_decide_idle_offloaded_demoted () =
  let old = candidate ~score:0.0 ~port:1 () in
  let d = decide ~offloaded:[ (old.Fastrak.Decision_engine.pattern, old) ] [] in
  Alcotest.check (Alcotest.list Alcotest.int) "idle demoted" [ 1 ]
    (ports d.Fastrak.Decision_engine.demote)

let test_decide_group_all_or_none () =
  (* Group of two needing 4 entries total: with only 3 free, neither
     member may be taken even though one would fit. *)
  let g = Some 1 in
  let d =
    decide ~tcam_free:3
      [ candidate ~score:100.0 ~entries:2 ~group:g ~port:1 ();
        candidate ~score:90.0 ~entries:2 ~group:g ~port:2 () ]
  in
  checki "none taken" 0 (List.length d.Fastrak.Decision_engine.offload);
  let d2 =
    decide ~tcam_free:4
      [ candidate ~score:100.0 ~entries:2 ~group:g ~port:1 ();
        candidate ~score:90.0 ~entries:2 ~group:g ~port:2 () ]
  in
  checki "both taken" 2 (List.length d2.Fastrak.Decision_engine.offload)

let test_decide_group_negative_scores () =
  (* Regression: [build_units] used to fold group scores from 0.0, so a
     group whose members all score below zero ranked at 0.0 — above any
     hotter (less negative) singleton. With a budget that fits only one
     unit, the pre-fix code offloads the cold group instead of the hot
     singleton. *)
  let g = Some 1 in
  let candidates =
    [
      candidate ~score:(-10.0) ~entries:1 ~group:g ~port:1 ();
      candidate ~score:(-20.0) ~entries:1 ~group:g ~port:2 ();
      candidate ~score:(-5.0) ~entries:2 ~port:3 ();
    ]
  in
  let d = decide ~min_score:(-100.0) ~tcam_free:2 candidates in
  Alcotest.check (Alcotest.list Alcotest.int) "hot singleton outranks cold group"
    [ 3 ]
    (ports d.Fastrak.Decision_engine.offload);
  (* The bug lived in [build_units], which the list baseline still
     goes through — it must agree. *)
  let b =
    Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded:[]
      ~tcam_free:2 ~max_offloads:None ~min_score:(-100.0) ()
  in
  Alcotest.check (Alcotest.list Alcotest.int) "baseline agrees" [ 3 ]
    (ports b.Fastrak.Decision_engine.offload)

let test_decide_matches_list_baseline () =
  (* The hashtable rewrite must agree with the retained list-based
     implementation on randomized inputs: same offload/demote/keep
     sets. Seeded via Dcsim.Rng so failures reproduce. *)
  let rng = Dcsim.Rng.create ~seed:20260806 in
  for trial = 1 to 200 do
    let n = 1 + Dcsim.Rng.int rng 60 in
    let candidates =
      List.init n (fun i ->
          candidate
            ~score:(Dcsim.Rng.float rng 1000.0)
            ~entries:(1 + Dcsim.Rng.int rng 4)
            ~group:
              (if Dcsim.Rng.int rng 10 = 0 then Some (Dcsim.Rng.int rng 5)
               else None)
            ~port:i ())
    in
    let offloaded =
      List.filter_map
        (fun (c : Fastrak.Decision_engine.candidate) ->
          if Dcsim.Rng.int rng 3 = 0 then
            Some (c.Fastrak.Decision_engine.pattern, c)
          else None)
        candidates
    in
    let tcam_free = Dcsim.Rng.int rng 120 in
    let max_offloads =
      if Dcsim.Rng.bool rng then None else Some (Dcsim.Rng.int rng (n + 1))
    in
    let min_score = Dcsim.Rng.float rng 500.0 in
    let fast =
      Fastrak.Decision_engine.decide ~candidates ~offloaded ~tcam_free
        ~max_offloads ~min_score ()
    in
    let slow =
      Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded
        ~tcam_free ~max_offloads ~min_score ()
    in
    let label what =
      Printf.sprintf "trial %d (%d cands, %d offloaded): %s" trial n
        (List.length offloaded) what
    in
    let check_same what a b =
      Alcotest.check (Alcotest.list Alcotest.int) (label what) (ports a) (ports b)
    in
    check_same "offload" slow.Fastrak.Decision_engine.offload
      fast.Fastrak.Decision_engine.offload;
    check_same "demote" slow.Fastrak.Decision_engine.demote
      fast.Fastrak.Decision_engine.demote;
    check_same "keep" slow.Fastrak.Decision_engine.keep
      fast.Fastrak.Decision_engine.keep
  done

let test_decide_scratch_reuse_matches_baseline () =
  (* One scratch reused across every trial (the production pattern: a
     ToR controller owns one for its lifetime): residue from call N
     must not leak into call N+1, so each call must still agree with
     the stateless list baseline. *)
  let scratch = Fastrak.Decision_engine.create_scratch () in
  let rng = Dcsim.Rng.create ~seed:20260808 in
  for trial = 1 to 100 do
    let n = 1 + Dcsim.Rng.int rng 60 in
    let candidates =
      List.init n (fun i ->
          candidate
            ~score:(Dcsim.Rng.float rng 1000.0)
            ~entries:(1 + Dcsim.Rng.int rng 4)
            ~group:
              (if Dcsim.Rng.int rng 10 = 0 then Some (Dcsim.Rng.int rng 5)
               else None)
            ~port:i ())
    in
    let offloaded =
      List.filter_map
        (fun (c : Fastrak.Decision_engine.candidate) ->
          if Dcsim.Rng.int rng 3 = 0 then
            Some (c.Fastrak.Decision_engine.pattern, c)
          else None)
        candidates
    in
    let tcam_free = Dcsim.Rng.int rng 120 in
    let max_offloads =
      if Dcsim.Rng.bool rng then None else Some (Dcsim.Rng.int rng (n + 1))
    in
    let min_score = Dcsim.Rng.float rng 500.0 in
    let fast =
      Fastrak.Decision_engine.decide ~scratch ~candidates ~offloaded ~tcam_free
        ~max_offloads ~min_score ()
    in
    let slow =
      Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded
        ~tcam_free ~max_offloads ~min_score ()
    in
    let label what =
      Printf.sprintf "trial %d (%d cands, %d offloaded): %s" trial n
        (List.length offloaded) what
    in
    let check_same what a b =
      Alcotest.check (Alcotest.list Alcotest.int) (label what) (ports a) (ports b)
    in
    check_same "offload" slow.Fastrak.Decision_engine.offload
      fast.Fastrak.Decision_engine.offload;
    check_same "demote" slow.Fastrak.Decision_engine.demote
      fast.Fastrak.Decision_engine.demote;
    check_same "keep" slow.Fastrak.Decision_engine.keep
      fast.Fastrak.Decision_engine.keep
  done

(* --- Measurement engine --- *)

let me_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
    epochs_per_interval = 2;
    history_intervals = 2;
  }

let test_me_measures_pps () =
  let engine = Engine.create () in
  (* A synthetic counter source: 500 packets and 50 KB per poll-gap. *)
  let f =
    Fkey.make ~src_ip:(Ipv4.of_string "10.7.0.1") ~dst_ip:(Ipv4.of_string "10.7.0.2")
      ~src_port:10 ~dst_port:20 ~proto:Fkey.Tcp ~tenant
  in
  let packets = ref 0 in
  Engine.every engine (Simtime.span_ms 1.0) (fun () ->
      packets := !packets + 2;
      `Continue);
  let me =
    Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
      ~poll:(fun () -> [ (f, !packets, !packets * 100) ])
      ~classify:(fun flow ->
        Some
          ( Fkey.Pattern.src_aggregate flow,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = flow.Fkey.src_ip;
              direction = `Outgoing;
            } ))
  in
  let reports = ref [] in
  Fastrak.Measurement_engine.on_report me (fun r -> reports := r :: !reports);
  Fastrak.Measurement_engine.start me;
  Engine.run ~until:(Simtime.of_sec 1.0) engine;
  checkb "reports emitted" true (List.length !reports >= 2);
  let r = List.hd !reports in
  (match r.Fastrak.Measurement_engine.entries with
  | [ e ] ->
      (* 2 packets per ms = 2000 pps; bytes = 100/packet -> 1.6 Mb/s. *)
      checkb "pps ~2000" true (Float.abs (e.median_pps -. 2000.0) < 120.0);
      checkb "bps ~1.6e6" true (Float.abs (e.median_bps -. 1.6e6) < 1.6e5);
      checkb "active epochs counted" true (e.epochs_active >= 2);
      checkb "destination learned" true
        (List.exists (Ipv4.equal (Ipv4.of_string "10.7.0.2")) e.destinations)
  | l -> Alcotest.failf "expected one aggregate, got %d" (List.length l));
  checkb "intervals counted" true
    (Fastrak.Measurement_engine.intervals_completed me >= 2)

let test_me_idle_flows_dropped_from_report () =
  let engine = Engine.create () in
  let f =
    Fkey.make ~src_ip:(Ipv4.of_string "10.7.0.1") ~dst_ip:(Ipv4.of_string "10.7.0.2")
      ~src_port:10 ~dst_port:20 ~proto:Fkey.Tcp ~tenant
  in
  (* Counters never move: the flow exists but is idle. *)
  let me =
    Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
      ~poll:(fun () -> [ (f, 42, 4200) ])
      ~classify:(fun flow ->
        Some
          ( Fkey.Pattern.src_aggregate flow,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = flow.Fkey.src_ip;
              direction = `Outgoing;
            } ))
  in
  let last = ref None in
  Fastrak.Measurement_engine.on_report me (fun r -> last := Some r);
  Fastrak.Measurement_engine.start me;
  Engine.run ~until:(Simtime.of_sec 1.0) engine;
  match !last with
  | Some r -> checki "no active entries" 0 (List.length r.Fastrak.Measurement_engine.entries)
  | None -> Alcotest.fail "expected a report"

let test_me_counter_reset_clamped () =
  (* A flow evicted from the exact-match cache and re-created between
     polls restarts its kernel counters from zero; the resulting
     negative delta must be clamped (counted as a reset), not reported
     as negative pps that poisons the medians. *)
  let engine = Engine.create () in
  let f =
    Fkey.make ~src_ip:(Ipv4.of_string "10.7.0.1") ~dst_ip:(Ipv4.of_string "10.7.0.2")
      ~src_port:10 ~dst_port:20 ~proto:Fkey.Tcp ~tenant
  in
  let packets = ref 0 in
  Engine.every engine (Simtime.span_ms 1.0) (fun () ->
      packets := !packets + 2;
      `Continue);
  (* Mid-run eviction: counters restart from zero. With a 100 ms epoch
     period and 40 ms poll gap the epochs' poll windows sit at
     [100,140], [240,280], [380,420], ... — 399 ms lands inside one,
     so that delta is guaranteed to see p2 < p1. *)
  ignore (Engine.at engine (Simtime.of_ms 399.0) (fun () -> packets := 0));
  let me =
    Fastrak.Measurement_engine.create ~engine ~config:me_config ~name:"t"
      ~poll:(fun () -> [ (f, !packets, !packets * 100) ])
      ~classify:(fun flow ->
        Some
          ( Fkey.Pattern.src_aggregate flow,
            {
              Fastrak.Measurement_engine.tenant;
              vm_ip = flow.Fkey.src_ip;
              direction = `Outgoing;
            } ))
  in
  let reports = ref [] in
  Fastrak.Measurement_engine.on_report me (fun r -> reports := r :: !reports);
  let resets = Obs.Metrics.counter "fastrak.me.counter_resets" in
  let resets_before = Obs.Metrics.counter_value resets in
  Fastrak.Measurement_engine.start me;
  Engine.run ~until:(Simtime.of_sec 1.0) engine;
  checkb "reset counted" true (Obs.Metrics.counter_value resets > resets_before);
  checkb "reports emitted" true (!reports <> []);
  List.iter
    (fun (r : Fastrak.Measurement_engine.report) ->
      List.iter
        (fun (e : Fastrak.Measurement_engine.entry) ->
          checkb "median_pps non-negative" true (e.median_pps >= 0.0);
          checkb "median_bps non-negative" true (e.median_bps >= 0.0);
          checkb "last_pps non-negative" true (e.last_pps >= 0.0))
        r.Fastrak.Measurement_engine.entries)
    !reports

(* --- Demand profile --- *)

let test_profile_update_and_clone () =
  let vm_ip = Ipv4.of_string "10.7.0.1" in
  let p = Fastrak.Demand_profile.create ~tenant ~vm_ip in
  let entry pattern =
    {
      Fastrak.Measurement_engine.pattern;
      owner = { Fastrak.Measurement_engine.tenant; vm_ip; direction = `Outgoing };
      last_pps = 10.0;
      last_bps = 100.0;
      median_pps = 10.0;
      median_bps = 100.0;
      epochs_active = 2;
      destinations = [];
    }
  in
  let mine = Fkey.Pattern.from_vm vm_ip tenant in
  Fastrak.Demand_profile.update p
    { Fastrak.Measurement_engine.interval_index = 1; entries = [ entry mine ] };
  checki "one entry" 1 (Fastrak.Demand_profile.entry_count p);
  (* Entries owned by other VMs are ignored. *)
  let other = Ipv4.of_string "10.7.0.9" in
  let foreign =
    {
      (entry (Fkey.Pattern.from_vm other tenant)) with
      Fastrak.Measurement_engine.owner =
        { Fastrak.Measurement_engine.tenant; vm_ip = other; direction = `Outgoing };
    }
  in
  Fastrak.Demand_profile.update p
    { Fastrak.Measurement_engine.interval_index = 2; entries = [ foreign ] };
  checki "still one" 1 (Fastrak.Demand_profile.entry_count p);
  (* Cloning re-homes patterns to the new address. *)
  let clone = Fastrak.Demand_profile.clone_for p ~vm_ip:other in
  checki "clone carries history" 1 (Fastrak.Demand_profile.entry_count clone);
  match Fastrak.Demand_profile.entries clone with
  | [ e ] ->
      checkb "rehomed" true
        (e.Fastrak.Demand_profile.pattern.Fkey.Pattern.src_ip = Some other)
  | _ -> Alcotest.fail "expected one entry"

(* --- End-to-end rule manager --- *)

let fast_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
    min_score = 100.0;
  }

let hot_and_cold_testbed () =
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
  (tb, a, b, rm)

let test_rule_manager_offloads_hot_flow () =
  let tb, a, b, rm = hot_and_cold_testbed () in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  (* A hot transactional service (~ thousands of pps). *)
  let client =
    Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        Workloads.Transactions.Client.servers = [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
        connections = 1;
        outstanding = 8;
        request_size = 64;
        total_requests = None;
        src_port_base = 50_000;
      }
  in
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checkb "offloaded something" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  (* After offload the placer must route the hot flow via the VF. *)
  checkb "placer redirected" true (Host.Bonding.packets_via_vf a.Host.Server.bonding > 0);
  (* And the system keeps making progress end to end. *)
  let before = Workloads.Transactions.Client.completed client in
  Experiments.Testbed.run_for tb ~seconds:0.5;
  checkb "still progressing" true (Workloads.Transactions.Client.completed client > before)

let test_rule_manager_ignores_cold_flow () =
  let tb, a, b, rm = hot_and_cold_testbed () in
  (* A 20-pps trickle: score ~40 < min_score 100. *)
  Workloads.Background.install_scp_sink ~vm:b.Host.Server.vm;
  ignore
    (Workloads.Background.scp ~engine:tb.Experiments.Testbed.engine
       ~vm:a.Host.Server.vm
       ~dst_ip:(Host.Vm.ip b.Host.Server.vm)
       ~rate_bps:(20.0 *. 1448.0 *. 8.0)
       ());
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checki "nothing offloaded" 0 (Fastrak.Rule_manager.offloaded_count rm)

let test_rule_manager_demotes_idle () =
  let tb, a, b, rm = hot_and_cold_testbed () in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  let client =
    Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
      ~vm:a.Host.Server.vm
      {
        Workloads.Transactions.Client.servers = [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
        connections = 1;
        outstanding = 8;
        request_size = 64;
        total_requests = None;
        src_port_base = 50_000;
      }
  in
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checkb "offloaded while hot" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  Workloads.Transactions.Client.stop client;
  (* History (N*M epochs) must age out, then the DE demotes. *)
  Experiments.Testbed.run_for tb ~seconds:3.0;
  checki "demoted when idle" 0 (Fastrak.Rule_manager.offloaded_count rm)

let test_rule_manager_vm_migration () =
  let tb, a, b, rm = hot_and_cold_testbed () in
  Workloads.Transactions.Server.install ~vm:b.Host.Server.vm ~port:9000
    ~response_size:64 ();
  ignore
    (Workloads.Transactions.Client.start ~engine:tb.Experiments.Testbed.engine
       ~vm:a.Host.Server.vm
       {
         Workloads.Transactions.Client.servers = [ (Host.Vm.ip b.Host.Server.vm, 9000) ];
         connections = 1;
         outstanding = 8;
         request_size = 64;
         total_requests = None;
         src_port_base = 50_000;
       });
  Fastrak.Rule_manager.start rm;
  Experiments.Testbed.run_for tb ~seconds:1.5;
  checkb "offloaded" true (Fastrak.Rule_manager.offloaded_count rm > 0);
  (* §4.1.2: before VM migration all offloaded flows return to the
     hypervisor, and the demand profile travels with the VM. *)
  let a_ip = Host.Vm.ip a.Host.Server.vm in
  let mg = Fastrak.Rule_manager.begin_vm_migration rm ~tenant ~vm_ip:a_ip in
  (* Every rule belonging to the migrating VM is back in software; the
     sink's own offloaded aggregates are untouched. *)
  checkb "vm's rules all returned" true
    (List.for_all
       (fun (p : Fkey.Pattern.t) -> p.Fkey.Pattern.src_ip <> Some a_ip)
       (Fastrak.Tor_controller.offloaded_patterns
          (Fastrak.Rule_manager.tor_controller rm)));
  (match Fastrak.Rule_manager.migration_profile mg with
  | Some p -> checkb "profile non-empty" true (Fastrak.Demand_profile.entry_count p > 0)
  | None -> Alcotest.fail "expected a demand profile");
  checkb "commit succeeds" true
    (Fastrak.Rule_manager.commit_vm_migration rm mg ~new_server:"server1")

(* FPS end to end, on the topology of examples/rate_limit_split.ml: a VM
   with a 2 Gb/s transmit limit sends one stream through the vswitch and
   one pinned to its VF, and every control interval the local controller
   splits the limit across the two shapers. *)
let test_fps_splits_finite_limit_end_to_end () =
  let splits = ref [] in
  Obs.Trace.disable ();
  Obs.Trace.use_callback (fun _ ev ->
      match ev with Obs.Trace.Fps_split _ -> splits := ev :: !splits | _ -> ());
  let mon = Obs.Monitor.create ~mode:Obs.Monitor.Strict () in
  Obs.Monitor.attach mon;
  Fun.protect ~finally:Obs.Trace.disable (fun () ->
      let tb = Experiments.Testbed.create ~server_count:2 () in
      let vm =
        Experiments.Testbed.add_vm tb
          (Experiments.Testbed.vm_spec ~server:0 ~name:"limited"
             ~ip_last_octet:1 ~tx_limit:(Rules.Rate_limit_spec.gbps 2.0) ())
      in
      let sink =
        Experiments.Testbed.add_vm tb
          (Experiments.Testbed.vm_spec ~server:1 ~name:"sink" ~ip_last_octet:2 ())
      in
      Experiments.Testbed.connect_tunnels tb;
      let sink_ip = Host.Vm.ip sink.Host.Server.vm in
      List.iter
        (fun (port, src_port) ->
          Workloads.Stream.install_sink ~vm:sink.Host.Server.vm ~port ();
          ignore
            (Workloads.Stream.start ~engine:tb.Experiments.Testbed.engine
               ~vm:vm.Host.Server.vm
               {
                 (Workloads.Stream.default_config ~dst_ip:sink_ip) with
                 Workloads.Stream.dst_port = port;
                 src_port;
                 message_size = 32000;
               }))
        [ (5001, 41001); (5002, 41002) ];
      let pattern =
        {
          (Fkey.Pattern.from_vm (Host.Vm.ip vm.Host.Server.vm) tenant) with
          Fkey.Pattern.src_port = Some 41002;
        }
      in
      ignore
        (Experiments.Testbed.pin tb.Experiments.Testbed.tor vm ~selection:pattern
           ~destinations:[ sink_ip ]);
      ignore
        (Host.Bonding.install_rule vm.Host.Server.bonding ~pattern ~priority:5
           Host.Bonding.Vf);
      let rm =
        Fastrak.Rule_manager.create ~engine:tb.Experiments.Testbed.engine
          ~config:
            {
              Fastrak.Config.default with
              Fastrak.Config.epoch_period = Simtime.span_ms 200.0;
              poll_gap = Simtime.span_ms 80.0;
              min_score = infinity;
            }
          ~tor:tb.Experiments.Testbed.tor
          ~servers:(Array.to_list tb.Experiments.Testbed.servers)
          ()
      in
      Fastrak.Rule_manager.start rm;
      Experiments.Testbed.run_for tb ~seconds:2.5;
      checkb "fps_split fired" true (!splits <> []);
      checki "no violations" 0 (Obs.Monitor.total mon);
      match (!splits, vm.Host.Server.vf) with
      | ( Obs.Trace.Fps_split { soft_bps; hard_bps; total_bps; overflow_bps; _ } :: _,
          Some vf ) ->
          let rate spec = spec.Rules.Rate_limit_spec.rate_bps in
          checkf 0.0 "vif limit is the last soft rate" soft_bps
            (rate (Vswitch.Ovs.vif_tx_limit vm.Host.Server.vif));
          checkf 0.0 "vf limit is the last hard rate" hard_bps
            (rate (Nic.Sriov.vf_tx_limit vf));
          checkb "soft + hard <= total + 2 overflow" true
            (soft_bps +. hard_bps <= total_bps +. (2.0 *. overflow_bps))
      | _ -> Alcotest.fail "expected an fps_split and a VF")

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "fps proportional" test_fps_proportional;
    t "fps sums with overflow" test_fps_sums_to_total_plus_overflow;
    t "fps floor" test_fps_floor;
    t "fps even on no demand" test_fps_no_demand_even_split;
    t "fps maxed grows" test_fps_maxed_grows;
    t "fps unlimited" test_fps_unlimited_total;
    t "fps maxed with unlimited current" test_fps_maxed_unlimited_current;
    QCheck_alcotest.to_alcotest prop_fps_split_finite;
    t "scoring formula" test_scoring;
    t "scoring mfu not elephant" test_scoring_mfu_not_elephant;
    t "decide ranks by score" test_decide_ranks_by_score;
    t "decide respects capacity" test_decide_respects_capacity;
    t "decide min score" test_decide_min_score;
    t "decide max offloads" test_decide_max_offloads;
    t "decide demotes losers" test_decide_demotes_losers;
    t "decide keeps winners" test_decide_keeps_winners;
    t "decide demotes idle" test_decide_idle_offloaded_demoted;
    t "decide group all-or-none" test_decide_group_all_or_none;
    t "decide group of negative scores" test_decide_group_negative_scores;
    t "decide matches list baseline" test_decide_matches_list_baseline;
    t "decide with reused scratch matches baseline"
      test_decide_scratch_reuse_matches_baseline;
    t "measurement engine pps" test_me_measures_pps;
    t "measurement engine idle flows" test_me_idle_flows_dropped_from_report;
    t "measurement engine counter reset" test_me_counter_reset_clamped;
    t "demand profile update/clone" test_profile_update_and_clone;
    t "rule manager offloads hot flow" test_rule_manager_offloads_hot_flow;
    t "rule manager ignores cold flow" test_rule_manager_ignores_cold_flow;
    t "rule manager demotes idle" test_rule_manager_demotes_idle;
    t "rule manager vm migration" test_rule_manager_vm_migration;
    t "fps splits a finite limit end to end"
      test_fps_splits_finite_limit_end_to_end;
  ]
