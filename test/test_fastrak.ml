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
                Fastrak.Fps.soft = Rules.Rate_limit_spec.make ~rate_bps:2e8;
                hard = Rules.Rate_limit_spec.make ~rate_bps:8e8;
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
    (Fastrak.Scoring.score ~epochs_active:3 ~median_pps:200.0);
  checkf 1e-9 "inactive scores zero" 0.0
    (Fastrak.Scoring.score ~epochs_active:0 ~median_pps:5000.0)

let test_scoring_mfu_not_elephant () =
  (* A service with 1000 small flows at ~3 packets each (3000 pps) must
     outrank a single elephant at 300 pps, regardless of bytes. *)
  let service = Fastrak.Scoring.score ~epochs_active:6 ~median_pps:3000.0 in
  let elephant = Fastrak.Scoring.score ~epochs_active:6 ~median_pps:300.0 in
  checkb "pps rules" true (service > elephant)

(* --- Decision engine --- *)

let candidate ?(score = 100.0) ?(entries = 2) ~port () =
  {
    Fastrak.Decision_engine.pattern =
      { Fkey.Pattern.any with Fkey.Pattern.src_port = Some port };
    tenant;
    vm_ip = Ipv4.of_string "10.7.0.1";
    score;
    tcam_entries = entries;
  }

let decide ?(offloaded = []) ?(tcam_free = 100) ?(min_score = 1.0) candidates =
  Fastrak.Decision_engine.decide ~candidates ~offloaded ~tcam_free ~min_score ()

(* A decision list's ports in list order, then as a sorted set. *)
let port_list l =
  List.filter_map
    (fun (c : Fastrak.Decision_engine.candidate) ->
      c.Fastrak.Decision_engine.pattern.Fkey.Pattern.src_port)
    l

let ports l = List.sort compare (port_list l)

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

let test_decide_matches_list_baseline () =
  (* The hashtable rewrite must agree with the retained list-based
     implementation on randomized inputs: the same offload/demote/keep
     lists in the same order, since the controller applies them in
     list order. Seeded via Dcsim.Rng so failures reproduce. *)
  let rng = Dcsim.Rng.create ~seed:20260806 in
  for trial = 1 to 200 do
    let n = 1 + Dcsim.Rng.int rng 60 in
    let candidates =
      List.init n (fun i ->
          candidate
            ~score:(Dcsim.Rng.float rng 1000.0)
            ~entries:(1 + Dcsim.Rng.int rng 4)
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
    let min_score = Dcsim.Rng.float rng 500.0 in
    let fast =
      Fastrak.Decision_engine.decide ~candidates ~offloaded ~tcam_free ~min_score
        ()
    in
    let slow =
      Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded
        ~tcam_free ~min_score ()
    in
    let label what =
      Printf.sprintf "trial %d (%d cands, %d offloaded): %s" trial n
        (List.length offloaded) what
    in
    let check_same what a b =
      Alcotest.check (Alcotest.list Alcotest.int) (label what) (port_list a)
        (port_list b)
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
    let min_score = Dcsim.Rng.float rng 500.0 in
    let fast =
      Fastrak.Decision_engine.decide ~scratch ~candidates ~offloaded ~tcam_free
        ~min_score ()
    in
    let slow =
      Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded
        ~tcam_free ~min_score ()
    in
    let label what =
      Printf.sprintf "trial %d (%d cands, %d offloaded): %s" trial n
        (List.length offloaded) what
    in
    let check_same what a b =
      Alcotest.check (Alcotest.list Alcotest.int) (label what) (port_list a)
        (port_list b)
    in
    check_same "offload" slow.Fastrak.Decision_engine.offload
      fast.Fastrak.Decision_engine.offload;
    check_same "demote" slow.Fastrak.Decision_engine.demote
      fast.Fastrak.Decision_engine.demote;
    check_same "keep" slow.Fastrak.Decision_engine.keep
      fast.Fastrak.Decision_engine.keep
  done

(* Equal scores under a budget that binds: which tied candidate wins,
   and the order of every output list, must not depend on the order
   [candidates] arrive in. The ToR controller lists them in hashtable
   order, and that order moves when the MEs drop idle records. *)
let prop_decide_ignores_candidate_order =
  let print (cands, _, _, tcam_free) =
    Printf.sprintf "tcam_free %d; (port, score, entries): %s" tcam_free
      (String.concat " "
         (List.map2
            (fun port (c : Fastrak.Decision_engine.candidate) ->
              Printf.sprintf "(%d,%g,%d)" port c.score c.tcam_entries)
            (port_list cands) cands))
  in
  QCheck2.Test.make ~name:"decide ignores candidate order" ~count:300 ~print
    QCheck2.Gen.(
      let* specs =
        list_size (int_range 2 40)
          (triple (oneofl [ 10.0; 20.0; 30.0 ]) (int_range 1 4) bool)
      in
      let candidates =
        List.mapi
          (fun port (score, entries, _) -> candidate ~score ~entries ~port ())
          specs
      in
      let offloaded =
        List.filter_map
          (fun ((c : Fastrak.Decision_engine.candidate), (_, _, off)) ->
            if off then Some (c.pattern, c) else None)
          (List.combine candidates specs)
      in
      let* tcam_free = int_range 0 (List.length specs) in
      let+ shuffled = shuffle_l candidates in
      (candidates, shuffled, offloaded, tcam_free))
    (fun (candidates, shuffled, offloaded, tcam_free) ->
      let lists (d : Fastrak.Decision_engine.decision) =
        List.map port_list
          Fastrak.Decision_engine.[ d.offload; d.demote; d.keep ]
      in
      let same decide = lists (decide candidates) = lists (decide shuffled) in
      same (fun candidates ->
          Fastrak.Decision_engine.decide ~candidates ~offloaded ~tcam_free
            ~min_score:1.0 ())
      && same (fun candidates ->
             Fastrak.Decision_engine.decide_list_baseline ~candidates ~offloaded
               ~tcam_free ~min_score:1.0 ()))

(* --- Measurement engine --- *)

let me_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
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
      ~expire:ignore
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
      ~expire:ignore
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
  (* A poll source whose counters restart from zero between the two
     polls (a datapath that re-creates an evicted flow; Flow_stats
     never does) reads a negative delta; it must be clamped (counted
     as a reset), not reported as negative pps that poisons the
     medians. *)
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
      ~expire:ignore
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

(* The expiring ME against a reference that forgets nothing. A few
   flows in two aggregates follow random on/off schedules and count
   into a real Flow_stats that the ME polls and expires. The reference
   keeps every flow's cumulative counters and every aggregate's
   samples forever and recomputes each report from them: what the ME
   reported before flows and aggregates expired. Interval by interval
   the two must list the same aggregates with the same figures. *)
module Forgetless = struct
  type t = {
    cum : (int * int) Fkey.Table.t;  (* every flow ever counted *)
    mutable first_poll : (int * int) Fkey.Table.t option;
    samples : (Fkey.Pattern.t, (float * float) list) Hashtbl.t;
        (* per aggregate, newest first, one per epoch since first seen *)
  }

  let create () =
    { cum = Fkey.Table.create 8; first_poll = None; samples = Hashtbl.create 8 }

  let record t flow ~packets ~bytes =
    let p, b = Option.value (Fkey.Table.find_opt t.cum flow) ~default:(0, 0) in
    Fkey.Table.replace t.cum flow (p + packets, b + bytes)

  (* Called at each of the ME's polls: the first of an epoch snapshots,
     the second turns the deltas into one sample per aggregate. *)
  let poll t ~gap_sec =
    match t.first_poll with
    | None -> t.first_poll <- Some (Fkey.Table.copy t.cum)
    | Some snap ->
        t.first_poll <- None;
        let epoch = Hashtbl.create 8 in
        Fkey.Table.iter
          (fun flow (p2, b2) ->
            let p1, b1 =
              Option.value (Fkey.Table.find_opt snap flow) ~default:(0, 0)
            in
            let pattern = Fkey.Pattern.src_aggregate flow in
            let pps, bps =
              Option.value (Hashtbl.find_opt epoch pattern) ~default:(0.0, 0.0)
            in
            Hashtbl.replace epoch pattern
              ( pps +. (float_of_int (p2 - p1) /. gap_sec),
                bps +. (float_of_int (b2 - b1) *. 8.0 /. gap_sec) ))
          t.cum;
        Hashtbl.iter
          (fun pattern sample ->
            let older =
              Option.value (Hashtbl.find_opt t.samples pattern) ~default:[]
            in
            Hashtbl.replace t.samples pattern (sample :: older))
          epoch

  (* (pattern, last pps, last bps, median pps, median bps, epochs
     active) for every aggregate with a positive sample in its last
     [window] epochs, sorted by pattern. *)
  let report t ~window =
    let median l =
      let a = Array.of_list l in
      Dcsim.Stats.median_in_place a (Array.length a)
    in
    Hashtbl.fold
      (fun pattern samples acc ->
        let recent = List.filteri (fun i _ -> i < window) samples in
        let active f = List.filter (fun x -> x > 0.0) (List.map f recent) in
        match (recent, active fst) with
        | _, [] | [], _ -> acc
        | (last_pps, last_bps) :: _, pps ->
            ( pattern,
              (last_pps, last_bps, median pps, median (active snd)),
              List.length pps )
            :: acc)
      t.samples []
    |> List.sort (fun (a, _, _) (b, _, _) -> Fkey.Pattern.compare a b)
end

let prop_me_matches_forgetless_reference =
  (* Four flows, two per aggregate; each follows its own list of
     (milliseconds, packets per ms) segments, 0 packets meaning off,
     and is off once its list ends. *)
  let flows =
    List.map
      (fun (src, port, dst) ->
        Fkey.make ~src_ip:(Ipv4.of_string src) ~dst_ip:(Ipv4.of_string dst)
          ~src_port:port ~dst_port:80 ~proto:Fkey.Tcp ~tenant)
      [
        ("10.7.0.1", 10, "10.7.0.2");
        ("10.7.0.1", 10, "10.7.0.3");
        ("10.7.0.4", 20, "10.7.0.5");
        ("10.7.0.4", 20, "10.7.0.6");
      ]
  in
  let segment =
    QCheck2.Gen.(pair (int_range 1 60) (frequency [ (1, pure 0); (1, int_range 1 4) ]))
  in
  let print schedules =
    String.concat " | "
      (List.map
         (fun segs ->
           String.concat " "
             (List.map (fun (ms, r) -> Printf.sprintf "%dms@%d" ms r) segs))
         schedules)
  in
  QCheck2.Test.make ~name:"expiring ME matches a forgetless reference" ~count:60
    ~print
    QCheck2.Gen.(list_repeat (List.length flows) (list_size (int_range 1 12) segment))
    (fun schedules ->
      let config =
        {
          Fastrak.Config.default with
          Fastrak.Config.epoch_period = Simtime.span_ms 10.0;
          poll_gap = Simtime.span_ms 4.0;
        }
      in
      let window =
        Fastrak.Config.epochs_per_interval * Fastrak.Config.history_intervals
      in
      let gap_sec = Simtime.span_to_sec config.poll_gap in
      let engine = Engine.create () in
      let stats = Vswitch.Flow_stats.create () in
      let reference = Forgetless.create () in
      (* Packets per ms of each flow at millisecond [ms]. *)
      let rate_at segs ms =
        let rec go start = function
          | [] -> 0
          | (len, r) :: rest -> if ms < start + len then r else go (start + len) rest
        in
        go 0 segs
      in
      let ms = ref 0 in
      Engine.every engine ~start:(Simtime.of_ms 0.5) (Simtime.span_ms 1.0) (fun () ->
          List.iter2
            (fun flow segs ->
              let r = rate_at segs !ms in
              if r > 0 then begin
                Vswitch.Flow_stats.record stats flow ~packets:r ~bytes:(700 * r);
                Forgetless.record reference flow ~packets:r ~bytes:(700 * r)
              end)
            flows schedules;
          incr ms;
          `Continue);
      let me =
        Fastrak.Measurement_engine.create ~engine ~config ~name:"t"
          ~poll:(fun () ->
            Forgetless.poll reference ~gap_sec;
            Vswitch.Flow_stats.to_list stats)
          ~expire:(fun () -> Vswitch.Flow_stats.expire stats)
          ~classify:(fun flow ->
            Some
              ( Fkey.Pattern.src_aggregate flow,
                {
                  Fastrak.Measurement_engine.tenant;
                  vm_ip = flow.Fkey.src_ip;
                  direction = `Outgoing;
                } ))
      in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
      let mismatches = ref [] in
      Fastrak.Measurement_engine.on_report me (fun r ->
          let got =
            List.sort
              (fun (a : Fastrak.Measurement_engine.entry) b ->
                Fkey.Pattern.compare a.pattern b.pattern)
              r.Fastrak.Measurement_engine.entries
          in
          let want = Forgetless.report reference ~window in
          let agree =
            List.length got = List.length want
            && List.for_all2
                 (fun (e : Fastrak.Measurement_engine.entry)
                      (pattern, (lp, lb, mp, mb), active) ->
                   Fkey.Pattern.equal e.pattern pattern
                   && e.epochs_active = active
                   && close e.last_pps lp && close e.last_bps lb
                   && close e.median_pps mp && close e.median_bps mb)
                 got want
          in
          (* Only aggregates still in their window keep a record. *)
          if (not agree)
             || Fastrak.Measurement_engine.aggregate_count me <> List.length got
          then
            mismatches := r.Fastrak.Measurement_engine.interval_index :: !mismatches);
      Fastrak.Measurement_engine.start me;
      Engine.run ~until:(Simtime.of_ms 700.0) engine;
      match !mismatches with
      | [] -> Fastrak.Measurement_engine.intervals_completed me > 20
      | l ->
          QCheck2.Test.fail_reportf "reports differ at intervals %s"
            (String.concat "," (List.rev_map string_of_int l)))

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
  (match Fastrak.Demand_profile.entries clone with
  | [ e ] ->
      checkb "rehomed" true
        (e.Fastrak.Demand_profile.pattern.Fkey.Pattern.src_ip = Some other)
  | _ -> Alcotest.fail "expected one entry");
  (* An entry last refreshed at interval 1 leaves once expiry reaches
     past it; an adopted copy, re-stamped, ages from its adoption. *)
  Fastrak.Demand_profile.expire p ~before:1;
  checki "refreshed at 1: kept" 1 (Fastrak.Demand_profile.entry_count p);
  Fastrak.Demand_profile.expire p ~before:2;
  checki "older: expired" 0 (Fastrak.Demand_profile.entry_count p);
  Fastrak.Demand_profile.restamp clone ~interval:9;
  Fastrak.Demand_profile.expire clone ~before:9;
  checki "re-stamped: kept" 1 (Fastrak.Demand_profile.entry_count clone)

(* --- End-to-end rule manager --- *)

let fast_config =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
    poll_gap = Simtime.span_ms 40.0;
    min_score = 100.0;
  }

let hot_and_cold_testbed ?(config = fast_config) () =
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
    Fastrak.Rule_manager.create ~engine:tb.Experiments.Testbed.engine ~config
      ~tor:tb.Experiments.Testbed.tor
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
  (* The stock 135-pps scp under Table 4's threshold, min_score 1000:
     detection must leave the trickle in software. *)
  let tb, a, b, rm =
    hot_and_cold_testbed
      ~config:{ fast_config with Fastrak.Config.min_score = 1000.0 }
      ()
  in
  Workloads.Background.install_scp_sink ~vm:b.Host.Server.vm;
  ignore
    (Workloads.Background.scp ~engine:tb.Experiments.Testbed.engine
       ~vm:a.Host.Server.vm
       ~dst_ip:(Host.Vm.ip b.Host.Server.vm));
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

(* Per-flow state ends when the flow does, on one server. A flow that
   stops leaves the vswitch's flow table within two epochs; once its
   history window is all zero its aggregate leaves the ME and its VM's
   demand profile; when it resumes at a new rate it is measured from
   scratch. The ToR controller's destinations for the aggregate are
   never expired. *)
let test_idle_flow_leaves_every_table () =
  let tb = Experiments.Testbed.create ~server_count:1 () in
  let add name octet =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name ~ip_last_octet:octet ())
  in
  let a = add "src" 1 and b = add "dst" 2 in
  Experiments.Testbed.connect_tunnels tb;
  let a_ip = Host.Vm.ip a.Host.Server.vm and b_ip = Host.Vm.ip b.Host.Server.vm in
  let engine = tb.Experiments.Testbed.engine in
  (* me_config's cadence: epochs start at 100 + 140k ms (100 ms period
     plus the 40 ms poll gap), reports close at 280k ms, and the
     history window is the last 6 epochs (M = 3 intervals). Nothing
     scores high enough to offload, so the flow stays on the vswitch. *)
  let rm =
    Fastrak.Rule_manager.create ~engine
      ~config:{ me_config with Fastrak.Config.min_score = infinity }
      ~tor:tb.Experiments.Testbed.tor
      ~servers:(Array.to_list tb.Experiments.Testbed.servers)
      ()
  in
  let local = Option.get (Fastrak.Rule_manager.local_controller rm ~server:"server0") in
  let tor_ctrl = Fastrak.Rule_manager.tor_controller rm in
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  Workloads.Stream.install_sink ~vm:b.Host.Server.vm ~port:5001 ();
  let stream pps =
    Workloads.Stream.start ~engine ~vm:a.Host.Server.vm
      {
        (Workloads.Stream.default_config ~dst_ip:b_ip) with
        Workloads.Stream.message_size = 1000;
        paced_rate_bps = Some (float_of_int pps *. 8000.0);
      }
  in
  let flow =
    Fkey.make ~src_ip:a_ip ~dst_ip:b_ip ~src_port:40000 ~dst_port:5001
      ~proto:Fkey.Tcp ~tenant
  in
  let pattern = Fkey.Pattern.src_aggregate flow in
  let counted () =
    List.exists (fun (f, _, _) -> Fkey.equal f flow) (Vswitch.Ovs.active_flows ovs)
  in
  let profile_entry () =
    Option.bind (Fastrak.Local_controller.profile local ~vm_ip:a_ip) (fun p ->
        List.find_opt
          (fun (e : Fastrak.Demand_profile.entry) ->
            Fkey.Pattern.equal e.Fastrak.Demand_profile.pattern pattern)
          (Fastrak.Demand_profile.entries p))
  in
  let check_dests () =
    Alcotest.(check (list string))
      "destinations kept" [ Ipv4.to_string b_ip ]
      (List.map Ipv4.to_string (Fastrak.Tor_controller.destinations tor_ctrl pattern))
  in
  (* Both VMs sit on one vswitch, so each packet counts twice: leaving
     a's VIF and entering b's. *)
  let median_pps () =
    Option.map (fun (e : Fastrak.Demand_profile.entry) -> e.median_pps) (profile_entry ())
  in
  let run_to sec = Engine.run ~until:(Simtime.of_sec sec) engine in
  Fastrak.Rule_manager.start rm;
  let first = stream 1000 in
  run_to 1.13;
  checkb "flow counted" true (counted ());
  Alcotest.(check (option (float 100.0))) "aggregate profiled" (Some 2000.0) (median_pps ());
  check_dests ();
  Workloads.Stream.stop first;
  (* The sweep at 1.22 s still sees packets since 1.08 s; the one at
     1.36 s sees none since 1.22 s. *)
  run_to 1.41;
  checkb "flow expired within two epochs" false (counted ());
  (* Epochs 9-14 (1.22-1.96 s) are all zero, so the report at 1.96 s
     drops the record. The profile entry, last refreshed by the report
     at 1.68 s (interval 6), expires at 2.52 s (interval 9). *)
  run_to 2.0;
  checki "ME holds no aggregate" 0 (Fastrak.Local_controller.aggregate_count local);
  checkb "profile entry kept" true (profile_entry () <> None);
  run_to 2.55;
  checkb "profile entry expired" true (profile_entry () = None);
  check_dests ();
  let second = stream 3000 in
  (* Epochs 19 and 20 (2.62 s and 2.76 s) both see the new rate; the
     report at 2.80 s is the first to carry the aggregate again. *)
  run_to 2.81;
  checkb "flow counted again" true (counted ());
  checkb "ME tracks it again" true (Fastrak.Local_controller.aggregate_count local > 0);
  (match profile_entry () with
  | Some e ->
      checki "only the new epochs" 2 e.Fastrak.Demand_profile.epochs_active;
      checkf 100.0 "the new median" 6000.0 e.Fastrak.Demand_profile.median_pps
  | None -> Alcotest.fail "expected the returning aggregate in the profile");
  check_dests ();
  Workloads.Stream.stop second

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
      match !splits with
      | Obs.Trace.Fps_split { soft_bps; hard_bps; total_bps; overflow_bps; _ } :: _ ->
          let rate spec = spec.Rules.Rate_limit_spec.rate_bps in
          checkf 0.0 "vif limit is the last soft rate" soft_bps
            (rate (Vswitch.Ovs.vif_tx_limit vm.Host.Server.vif));
          checkf 0.0 "vf limit is the last hard rate" hard_bps
            (rate (Nic.Sriov.vf_tx_limit vm.Host.Server.vf));
          checkb "soft + hard <= total + 2 overflow" true
            (soft_bps +. hard_bps <= total_bps +. (2.0 *. overflow_bps))
      | _ -> Alcotest.fail "expected an fps_split")

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
    t "decide demotes losers" test_decide_demotes_losers;
    t "decide keeps winners" test_decide_keeps_winners;
    t "decide demotes idle" test_decide_idle_offloaded_demoted;
    t "decide matches list baseline" test_decide_matches_list_baseline;
    t "decide with reused scratch matches baseline"
      test_decide_scratch_reuse_matches_baseline;
    QCheck_alcotest.to_alcotest prop_decide_ignores_candidate_order;
    t "measurement engine pps" test_me_measures_pps;
    t "measurement engine idle flows" test_me_idle_flows_dropped_from_report;
    t "measurement engine counter reset" test_me_counter_reset_clamped;
    QCheck_alcotest.to_alcotest prop_me_matches_forgetless_reference;
    t "demand profile update/clone" test_profile_update_and_clone;
    t "rule manager offloads hot flow" test_rule_manager_offloads_hot_flow;
    t "rule manager ignores cold flow" test_rule_manager_ignores_cold_flow;
    t "rule manager demotes idle" test_rule_manager_demotes_idle;
    t "rule manager vm migration" test_rule_manager_vm_migration;
    t "idle flow leaves every table" test_idle_flow_leaves_every_table;
    t "fps splits a finite limit end to end"
      test_fps_splits_finite_limit_end_to_end;
  ]
