(* Tests for the sharded engine: window execution, the cluster's
   conservative-lookahead scheduler, latency-bearing fabric channels,
   and the sharded-vs-single-engine equivalence properties. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Cluster = Dcsim.Cluster
module Channel = Fabric.Channel

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let ns = Simtime.of_ns
let span = Simtime.span_ns

(* --- Engine.run_window --- *)

let test_run_window_exclusive_bound () =
  let e = Engine.create () in
  let fired = ref [] in
  let at t = ignore (Engine.at e (ns t) (fun () -> fired := t :: !fired)) in
  at 10;
  at 20;
  at 30;
  Engine.run_window e ~until_exclusive:(ns 20);
  check
    Alcotest.(list int)
    "only the strictly-before event fired" [ 10 ] (List.rev !fired);
  checki "clock parked at the boundary" 20 (Simtime.to_ns (Engine.now e));
  checki "two events still pending" 2 (Engine.pending_events e);
  (* An injection exactly at the boundary is legal: [at]'s not-in-the-
     past guard accepts time = clock. *)
  at 20;
  Engine.run_window e ~until_exclusive:(ns 40);
  check
    Alcotest.(list int)
    "boundary injection ran in the next window" [ 10; 20; 20; 30 ]
    (List.rev !fired)

let test_run_window_empty_advances_clock () =
  let e = Engine.create () in
  Engine.run_window e ~until_exclusive:(ns 100);
  checki "clock advanced through the empty window" 100
    (Simtime.to_ns (Engine.now e));
  checkb "nothing pending" true (Engine.min_time e = Simtime.never)

let test_advance_clock_monotone () =
  let e = Engine.create () in
  Engine.advance_clock e (ns 50);
  checki "advanced" 50 (Simtime.to_ns (Engine.now e));
  Engine.advance_clock e (ns 20);
  checki "never moves backwards" 50 (Simtime.to_ns (Engine.now e))

(* --- Fabric.Channel --- *)

let test_channel_min_latency () =
  let src = Engine.create () and dst = Engine.create () in
  let cluster = Cluster.create ~shards:[| src; dst |] in
  let deliveries = ref [] in
  let ch =
    Channel.create ~cluster ~src ~dst ~latency:(span 5_000)
      ~handler:(fun label ->
        deliveries := (label, Simtime.to_ns (Engine.now dst)) :: !deliveries)
      ()
  in
  ignore (Engine.at src (ns 10_000) (fun () -> Channel.send ch "a"));
  Cluster.run cluster;
  check
    Alcotest.(list (pair string int))
    "delivered exactly one propagation delay later"
    [ ("a", 15_000) ]
    (List.rev !deliveries);
  checki "sent" 1 (Channel.messages_sent ch);
  checki "delivered" 1 (Channel.messages_delivered ch);
  checki "in flight" 0 (Channel.in_flight ch)

let test_channel_fifo () =
  let src = Engine.create () and dst = Engine.create () in
  let cluster = Cluster.create ~shards:[| src; dst |] in
  let deliveries = ref [] in
  let ch =
    Channel.create ~cluster ~src ~dst ~latency:(span 3_000)
      ~handler:(fun label -> deliveries := label :: !deliveries)
      ()
  in
  (* Three sends from the same instant: same earliest delivery time,
     and the channel must not reorder them. *)
  ignore
    (Engine.at src (ns 1_000) (fun () ->
         Channel.send ch "first";
         Channel.send ch "second";
         Channel.send ch "third"));
  Cluster.run cluster;
  check
    Alcotest.(list string)
    "same-instant sends stay in order"
    [ "first"; "second"; "third" ]
    (List.rev !deliveries)

let test_channel_rejects_zero_cross_shard_latency () =
  let src = Engine.create () and dst = Engine.create () in
  Alcotest.check_raises "zero latency across shards"
    (Invalid_argument
       "Fabric.Channel.create fabric.chan: cross-shard latency must be \
        positive")
    (fun () ->
      ignore
        (Channel.create ~src ~dst ~latency:Simtime.span_zero
           ~handler:(fun () -> ())
           ()))

let test_channel_same_engine_zero_latency_ok () =
  let e = Engine.create () in
  let got = ref 0 in
  let ch =
    Channel.create ~src:e ~dst:e ~latency:Simtime.span_zero
      ~handler:(fun x -> got := x)
      ()
  in
  ignore (Engine.at e (ns 100) (fun () -> Channel.send ch 42));
  Engine.run e;
  checki "delivered on the same engine" 42 !got

let test_unregistered_fast_channel_violates_lookahead () =
  let e0 = Engine.create () and e1 = Engine.create () in
  let cluster = Cluster.create ~shards:[| e0; e1 |] in
  (* The registered channel fixes the window at 10 us... *)
  let _slow =
    Channel.create ~cluster ~src:e0 ~dst:e1 ~latency:(span 10_000)
      ~handler:(fun () -> ())
      ()
  in
  (* ...but this 1 us back-channel skipped registration, so a send from
     shard 1 mid-window lands in shard 0's past (shard 0 has already
     run to the window end). *)
  let fast =
    Channel.create ~name:"rogue" ~src:e1 ~dst:e0 ~latency:(span 1_000)
      ~handler:(fun () -> ())
      ()
  in
  ignore (Engine.at e0 (ns 5_000) (fun () -> ()));
  ignore (Engine.at e1 (ns 5_000) (fun () -> Channel.send fast ()));
  checkb "send raises Invalid_argument" true
    (try
       Cluster.run cluster;
       false
     with Invalid_argument _ -> true)

(* --- Cluster --- *)

let test_cluster_requires_lookahead () =
  let e0 = Engine.create () and e1 = Engine.create () in
  let cluster = Cluster.create ~shards:[| e0; e1 |] in
  ignore (Engine.at e0 (ns 10) (fun () -> ()));
  checkb "multi-shard run without a registered bound rejected" true
    (try
       Cluster.run cluster;
       false
     with Invalid_argument _ -> true)

let test_cluster_rejects_duplicate_shards () =
  let e = Engine.create () in
  checkb "duplicate engine rejected" true
    (try
       ignore (Cluster.create ~shards:[| e; e |]);
       false
     with Invalid_argument _ -> true)

let test_cluster_lockstep_ping_pong () =
  let e0 = Engine.create () and e1 = Engine.create () in
  let cluster = Cluster.create ~shards:[| e0; e1 |] in
  let latency = span 7_000 in
  let log = ref [] in
  let ping = ref (fun _ -> ()) and pong = ref (fun _ -> ()) in
  let fwd =
    Channel.create ~cluster ~src:e0 ~dst:e1 ~latency
      ~handler:(fun n -> !pong n)
      ()
  in
  let back =
    Channel.create ~cluster ~src:e1 ~dst:e0 ~latency
      ~handler:(fun n -> !ping n)
      ()
  in
  (ping :=
     fun n ->
       log := ("e0", n, Simtime.to_ns (Engine.now e0)) :: !log;
       if n < 4 then Channel.send fwd (n + 1));
  (pong :=
     fun n ->
       log := ("e1", n, Simtime.to_ns (Engine.now e1)) :: !log;
       Channel.send back (n + 1));
  ignore (Engine.at e0 (ns 0) (fun () -> !ping 0));
  Cluster.run cluster;
  check
    Alcotest.(list (triple string int int))
    "alternating hops, one propagation delay apart"
    [
      ("e0", 0, 0);
      ("e1", 1, 7_000);
      ("e0", 2, 14_000);
      ("e1", 3, 21_000);
      ("e0", 4, 28_000);
    ]
    (List.rev !log);
  checkb "lockstep windows were used" true (Cluster.windows_run cluster > 0);
  checki "five events total" 5 (Cluster.events_processed cluster)

let test_cluster_until_parks_clocks () =
  let e0 = Engine.create () and e1 = Engine.create () in
  let cluster = Cluster.create ~shards:[| e0; e1 |] in
  let _ch =
    Channel.create ~cluster ~src:e0 ~dst:e1 ~latency:(span 1_000)
      ~handler:(fun () -> ())
      ()
  in
  let fired = ref 0 in
  ignore (Engine.at e0 (ns 5_000) (fun () -> incr fired));
  ignore (Engine.at e1 (ns 50_000) (fun () -> incr fired));
  Cluster.run ~until:(ns 20_000) cluster;
  checki "only the in-limit event fired" 1 !fired;
  checki "shard 0 parked at the limit" 20_000 (Simtime.to_ns (Engine.now e0));
  checki "shard 1 parked at the limit" 20_000 (Simtime.to_ns (Engine.now e1));
  checki "late event still pending" 1 (Engine.pending_events e1);
  (* A later run picks the remaining event up. *)
  Cluster.run cluster;
  checki "resumed past the limit" 2 !fired

(* In the final, partial window every shard runs under [Engine.run]'s
   parking rule: a shard whose queue drained keeps its clock, and a
   shard still holding a later event parks at the limit. *)
let test_cluster_final_window_parking () =
  let e0 = Engine.create () and e1 = Engine.create () and e2 = Engine.create () in
  let cluster = Cluster.create ~shards:[| e0; e1; e2 |] in
  Cluster.constrain_lookahead cluster (span 10_000);
  ignore (Engine.at e0 (ns 1_000) (fun () -> ()));
  ignore (Engine.at e1 (ns 3_000) (fun () -> ()));
  ignore (Engine.at e1 (ns 50_000) (fun () -> ()));
  Cluster.run ~until:(ns 5_000) cluster;
  checki "one window" 1 (Cluster.windows_run cluster);
  checki "drained shard stays on its last event" 1_000
    (Simtime.to_ns (Engine.now e0));
  checki "shard with a later event parks at the limit" 5_000
    (Simtime.to_ns (Engine.now e1));
  checki "empty shard keeps its clock" 0 (Simtime.to_ns (Engine.now e2))

(* Every shard, idle ones included, ends each full window on its end,
   so all shards share one boundary between windows. *)
let test_cluster_windows_end_together () =
  let e0 = Engine.create () and e1 = Engine.create () and e2 = Engine.create () in
  let cluster = Cluster.create ~shards:[| e0; e1; e2 |] in
  Cluster.constrain_lookahead cluster (span 10_000);
  let fired = ref [] in
  let at e t =
    ignore (Engine.at e (ns t) (fun () -> fired := t :: !fired))
  in
  at e0 1_000;
  at e0 2_000;
  at e1 3_000;
  Cluster.run cluster;
  checki "one window" 1 (Cluster.windows_run cluster);
  List.iter
    (fun e -> checki "first window end" 11_000 (Simtime.to_ns (Engine.now e)))
    [ e0; e1; e2 ];
  at e1 12_000;
  Cluster.run cluster;
  check Alcotest.(list int) "every event, in order"
    [ 1_000; 2_000; 3_000; 12_000 ] (List.rev !fired);
  checki "two windows" 2 (Cluster.windows_run cluster);
  List.iter
    (fun e -> checki "second window end" 22_000 (Simtime.to_ns (Engine.now e)))
    [ e0; e1; e2 ]

let test_cluster_single_shard_degenerates () =
  let e = Engine.create () in
  let cluster = Cluster.create ~shards:[| e |] in
  let fired = ref [] in
  ignore (Engine.at e (ns 10) (fun () -> fired := 10 :: !fired));
  ignore (Engine.at e (ns 20) (fun () -> fired := 20 :: !fired));
  (* No channels, no lookahead: a single shard must not need windows. *)
  Cluster.run cluster;
  check Alcotest.(list int) "ran everything" [ 10; 20 ] (List.rev !fired);
  checki "no lockstep windows" 0 (Cluster.windows_run cluster)

(* --- sharded vs single-engine trace equivalence (property) ---

   A workload of bouncing messages between two racks must produce the
   same per-rack (time, item, hop) event sequence whether the racks
   live on two cluster shards or share one engine. Item start times are
   staggered (unique offsets) and the channel latency is a large prime,
   so no two events on one rack ever share an instant and the per-rack
   sequences are fully determined. *)

let bounce_workload ~mk_engines items =
  let e0, e1, run = mk_engines () in
  let engines = [| e0; e1 |] in
  let log = ref [] in
  let latency = span 1_000_003 in
  let handlers = Array.make 2 (fun (_ : int * int * int) -> ()) in
  let chans =
    Array.init 2 (fun i ->
        (i, Channel.create ~src:engines.(1 - i) ~dst:engines.(i) ~latency
              ~handler:(fun msg -> handlers.(i) msg)
              ()))
  in
  let channels = Array.map snd chans in
  Array.iteri
    (fun i _ ->
      handlers.(i) <-
        (fun (item, hop, hops_left) ->
          log := (i, Simtime.to_ns (Engine.now engines.(i)), item, hop) :: !log;
          if hops_left > 0 then
            Channel.send channels.(1 - i) (item, hop + 1, hops_left - 1)))
    handlers;
  List.iteri
    (fun idx (rack, hops) ->
      let rack = rack land 1 in
      let t = ns ((idx * 100) + 1) in
      ignore
        (Engine.at engines.(rack) t (fun () ->
             log := (rack, Simtime.to_ns (Engine.now engines.(rack)), idx, 0) :: !log;
             if hops > 0 then
               Channel.send channels.(1 - rack) (idx, 1, hops - 1))))
    items;
  run ();
  List.rev !log

let sharded_engines () =
  let e0 = Engine.create () and e1 = Engine.create () in
  let cluster = Cluster.create ~shards:[| e0; e1 |] in
  Cluster.constrain_lookahead cluster (span 1_000_003);
  (e0, e1, fun () -> Cluster.run cluster)

let single_engine () =
  let e = Engine.create () in
  (e, e, fun () -> Engine.run e)

let per_rack rack log =
  List.filter_map
    (fun (r, t, item, hop) -> if r = rack then Some (t, item, hop) else None)
    log

let prop_sharded_matches_single =
  QCheck2.Test.make ~name:"2-shard bounce trace equals single-engine trace"
    ~count:100
    QCheck2.Gen.(
      list_size (int_range 1 20) (pair (int_range 0 1) (int_range 0 6)))
    (fun items ->
      let sharded = bounce_workload ~mk_engines:sharded_engines items in
      let single = bounce_workload ~mk_engines:single_engine items in
      per_rack 0 sharded = per_rack 0 single
      && per_rack 1 sharded = per_rack 1 single
      && List.length sharded = List.length single)

(* --- dcscale end to end --- *)

let dcscale_test_config =
  {
    Experiments.Dcscale.default_config with
    Experiments.Dcscale.racks = 2;
    duration = 0.2;
    express_messages = 16;
    soft_messages = 4;
    message_size = 2048;
  }

let test_dcscale_sharded_equals_single () =
  let sharded =
    Experiments.Dcscale.run ~config:dcscale_test_config ()
  in
  let single =
    Experiments.Dcscale.run
      ~config:{ dcscale_test_config with Experiments.Dcscale.sharded = false }
      ()
  in
  checki "every express byte delivered (sharded)"
    (2 * 16 * 2048)
    sharded.Experiments.Dcscale.express_bytes;
  checki "express bytes equal" sharded.Experiments.Dcscale.express_bytes
    single.Experiments.Dcscale.express_bytes;
  checki "soft bytes equal" sharded.Experiments.Dcscale.soft_bytes
    single.Experiments.Dcscale.soft_bytes;
  checki "no core drops" 0 sharded.Experiments.Dcscale.core_dropped;
  check Alcotest.string "migration committed (sharded)" "committed"
    sharded.Experiments.Dcscale.migration_outcome;
  check Alcotest.string "migration committed (single)" "committed"
    single.Experiments.Dcscale.migration_outcome;
  checkb "sharded layout used one shard per rack plus the core" true
    (sharded.Experiments.Dcscale.shard_count = 3);
  checkb "sharded layout ran lockstep windows" true
    (sharded.Experiments.Dcscale.windows > 0);
  checki "single layout is one shard" 1 single.Experiments.Dcscale.shard_count

let suite =
  [
    Alcotest.test_case "run_window: exclusive bound" `Quick
      test_run_window_exclusive_bound;
    Alcotest.test_case "run_window: empty window advances clock" `Quick
      test_run_window_empty_advances_clock;
    Alcotest.test_case "advance_clock is monotone" `Quick
      test_advance_clock_monotone;
    Alcotest.test_case "channel: delivery after min latency" `Quick
      test_channel_min_latency;
    Alcotest.test_case "channel: FIFO for same-instant sends" `Quick
      test_channel_fifo;
    Alcotest.test_case "channel: zero cross-shard latency rejected" `Quick
      test_channel_rejects_zero_cross_shard_latency;
    Alcotest.test_case "channel: same-engine zero latency allowed" `Quick
      test_channel_same_engine_zero_latency_ok;
    Alcotest.test_case "channel: unregistered fast channel trips the guard"
      `Quick test_unregistered_fast_channel_violates_lookahead;
    Alcotest.test_case "cluster: lookahead required for multi-shard" `Quick
      test_cluster_requires_lookahead;
    Alcotest.test_case "cluster: duplicate shards rejected" `Quick
      test_cluster_rejects_duplicate_shards;
    Alcotest.test_case "cluster: lockstep ping-pong" `Quick
      test_cluster_lockstep_ping_pong;
    Alcotest.test_case "cluster: run ~until parks all clocks" `Quick
      test_cluster_until_parks_clocks;
    Alcotest.test_case "cluster: final partial window parking" `Quick
      test_cluster_final_window_parking;
    Alcotest.test_case "cluster: every shard ends each window on its end"
      `Quick test_cluster_windows_end_together;
    Alcotest.test_case "cluster: single shard degenerates to Engine.run"
      `Quick test_cluster_single_shard_degenerates;
    QCheck_alcotest.to_alcotest prop_sharded_matches_single;
    Alcotest.test_case "dcscale: sharded run equals single-engine run" `Slow
      test_dcscale_sharded_equals_single;
  ]
