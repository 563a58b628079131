(* Unit and property tests for the discrete-event simulation core. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Simtime --- *)

let test_time_conversions () =
  checki "us" 1_500 (Simtime.to_ns (Simtime.of_us 1.5));
  checki "ms" 2_000_000 (Simtime.to_ns (Simtime.of_ms 2.0));
  checki "sec" 3_000_000_000 (Simtime.to_ns (Simtime.of_sec 3.0));
  check (Alcotest.float 1e-9) "roundtrip sec" 1.25
    (Simtime.to_sec (Simtime.of_sec 1.25));
  checki "negative span" (-1_500_000_000)
    (Simtime.span_to_ns (Simtime.span_sec (-1.5)));
  checki "146 years" 4_600_000_000_000_000_000
    (Simtime.to_ns (Simtime.of_sec 4.6e9))

(* Each float conversion raises, naming itself, on values with no [int]
   count of nanoseconds instead of truncating them to 0 or wrapping. *)
let rejects name convert values () =
  List.iter
    (fun x ->
      match convert x with
      | ns -> Alcotest.failf "Simtime.%s %g returned %d ns" name x ns
      | exception Invalid_argument msg ->
          checkb msg true
            (String.starts_with ~prefix:(Printf.sprintf "Simtime.%s %g" name x) msg))
    values

let non_finite = [ Float.nan; Float.infinity; Float.neg_infinity ]

let conversion_cases =
  let ns = Simtime.to_ns and span = Simtime.span_to_ns in
  [
    ("of_us", (fun x -> ns (Simtime.of_us x)), 1e16 :: non_finite);
    ("of_ms", (fun x -> ns (Simtime.of_ms x)), -1e13 :: non_finite);
    ("of_sec", (fun x -> ns (Simtime.of_sec x)), 1e12 :: non_finite);
    ("span_us", (fun x -> span (Simtime.span_us x)), -1e16 :: non_finite);
    ("span_ms", (fun x -> span (Simtime.span_ms x)), 1e13 :: non_finite);
    ("span_sec", (fun x -> span (Simtime.span_sec x)), -1e10 :: non_finite);
    ( "span_scale",
      (fun k -> span (Simtime.span_scale k (Simtime.span_sec 1.0))),
      5e9 :: non_finite );
    ( "span_of_bytes_at_rate",
      (fun gbps -> span (Simtime.span_of_bytes_at_rate ~bytes_len:1500 ~gbps)),
      [ 0.0; -0.0; 1e-15; Float.nan ] );
  ]

let test_time_arithmetic () =
  let t = Simtime.of_us 10.0 in
  let t2 = Simtime.add t (Simtime.span_us 5.0) in
  checki "add" 15_000 (Simtime.to_ns t2);
  checki "diff" 5_000 (Simtime.span_to_ns (Simtime.diff t2 t));
  checkb "lt" true Simtime.(t < t2);
  checkb "ge" true Simtime.(t2 >= t)

let test_span_ops () =
  let a = Simtime.span_us 2.0 and b = Simtime.span_us 3.0 in
  checki "add" 5_000 (Simtime.span_to_ns (Simtime.span_add a b));
  checki "sub" 1_000 (Simtime.span_to_ns (Simtime.span_sub b a));
  checki "scale" 4_000 (Simtime.span_to_ns (Simtime.span_scale 2.0 a));
  checki "max" 3_000 (Simtime.span_to_ns (Simtime.span_max a b))

let test_serialization_delay () =
  (* 1500 bytes at 10 Gb/s = 1.2 us. *)
  checki "1500B@10G" 1_200
    (Simtime.span_to_ns (Simtime.span_of_bytes_at_rate ~bytes_len:1500 ~gbps:10.0));
  checki "64B@1G" 512
    (Simtime.span_to_ns (Simtime.span_of_bytes_at_rate ~bytes_len:64 ~gbps:1.0))

(* --- Event queue --- *)

let test_queue_ordering () =
  let q = Dcsim.Event_queue.create () in
  ignore (Dcsim.Event_queue.push q (Simtime.of_ns 30) "c");
  ignore (Dcsim.Event_queue.push q (Simtime.of_ns 10) "a");
  ignore (Dcsim.Event_queue.push q (Simtime.of_ns 20) "b");
  let pop () =
    match Dcsim.Event_queue.pop q with Some (_, v) -> v | None -> "-"
  in
  check Alcotest.string "first" "a" (pop ());
  check Alcotest.string "second" "b" (pop ());
  check Alcotest.string "third" "c" (pop ());
  checkb "empty" true (Dcsim.Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Dcsim.Event_queue.create () in
  let t = Simtime.of_ns 5 in
  ignore (Dcsim.Event_queue.push q t 1);
  ignore (Dcsim.Event_queue.push q t 2);
  ignore (Dcsim.Event_queue.push q t 3);
  let order =
    List.init 3 (fun _ ->
        match Dcsim.Event_queue.pop q with Some (_, v) -> v | None -> -1)
  in
  check (Alcotest.list Alcotest.int) "scheduling order" [ 1; 2; 3 ] order

let test_queue_cancel () =
  let q = Dcsim.Event_queue.create () in
  let h1 = Dcsim.Event_queue.push q (Simtime.of_ns 1) 1 in
  ignore (Dcsim.Event_queue.push q (Simtime.of_ns 2) 2);
  checkb "cancel ok" true (Dcsim.Event_queue.cancel q h1);
  checkb "double cancel" false (Dcsim.Event_queue.cancel q h1);
  checki "length" 1 (Dcsim.Event_queue.length q);
  (match Dcsim.Event_queue.pop q with
  | Some (_, v) -> checki "survivor" 2 v
  | None -> Alcotest.fail "expected one event");
  checkb "drained" true (Dcsim.Event_queue.pop q = None)

let test_queue_peek_skips_cancelled () =
  let q = Dcsim.Event_queue.create () in
  let h = Dcsim.Event_queue.push q (Simtime.of_ns 1) 1 in
  ignore (Dcsim.Event_queue.push q (Simtime.of_ns 7) 2);
  ignore (Dcsim.Event_queue.cancel q h);
  checki "peek" 7 (Simtime.to_ns (Dcsim.Event_queue.min_time q))

let test_queue_cancel_after_pop () =
  (* Regression: cancelling a handle whose event already fired must be
     a no-op — it used to return true and corrupt [length]. *)
  let q = Dcsim.Event_queue.create () in
  let h1 = Dcsim.Event_queue.push q (Simtime.of_ns 1) 1 in
  ignore (Dcsim.Event_queue.push q (Simtime.of_ns 2) 2);
  (match Dcsim.Event_queue.pop q with
  | Some (_, v) -> checki "popped first" 1 v
  | None -> Alcotest.fail "expected an event");
  checkb "cancel after fire is a no-op" false (Dcsim.Event_queue.cancel q h1);
  checki "length uncorrupted" 1 (Dcsim.Event_queue.length q);
  checkb "not empty" false (Dcsim.Event_queue.is_empty q);
  (* Cancel-then-pop-then-cancel: the cancelled entry must not be
     cancellable a second time either. *)
  let h2 = Dcsim.Event_queue.push q (Simtime.of_ns 1) 3 in
  checkb "cancel live" true (Dcsim.Event_queue.cancel q h2);
  (match Dcsim.Event_queue.pop q with
  | Some (_, v) -> checki "skips cancelled" 2 v
  | None -> Alcotest.fail "expected survivor");
  checkb "cancel after cancel and pop" false (Dcsim.Event_queue.cancel q h2);
  checki "drained" 0 (Dcsim.Event_queue.length q);
  checkb "pop on empty" true (Dcsim.Event_queue.pop q = None)

let drain_payloads q =
  let rec go acc =
    match Dcsim.Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, v) -> go (v :: acc)
  in
  go []

let test_queue_order_after_mass_cancel () =
  let q = Dcsim.Event_queue.create () in
  let handles =
    List.init 10_000 (fun i -> (i, Dcsim.Event_queue.push q (Simtime.of_ns i) i))
  in
  List.iter
    (fun (i, h) ->
      if i mod 1000 <> 0 then checkb "cancel" true (Dcsim.Event_queue.cancel q h))
    handles;
  checki "live survivors" 10 (Dcsim.Event_queue.length q);
  Alcotest.check (Alcotest.list Alcotest.int) "survivors in order"
    [ 0; 1000; 2000; 3000; 4000; 5000; 6000; 7000; 8000; 9000 ]
    (drain_payloads q)

let test_queue_stale_handle_after_reuse () =
  (* A freed slot is reused by the next push: the old handle must not
     reach the new occupant, whether its event fired or was cancelled. *)
  let module Q = Dcsim.Event_queue in
  let q = Q.create () in
  let fired = Q.push q (Simtime.of_ns 1) "fired" in
  ignore (Q.pop q);
  let cancelled = Q.push q (Simtime.of_ns 2) "cancelled" in
  checkb "cancel live" true (Q.cancel q cancelled);
  ignore (Q.push q (Simtime.of_ns 3) "new");
  checkb "fired handle is stale" false (Q.cancel q fired);
  checkb "cancelled handle is stale" false (Q.cancel q cancelled);
  checki "length" 1 (Q.length q);
  Alcotest.(check (list string)) "new event fires" [ "new" ] (drain_payloads q)

let test_queue_handles_survive_growth () =
  (* The first 16 handles predate two doublings of the queue's arrays.
     Pushed in falling time order, those entries sit away from their
     slots' indices, and the later-timed pushes never move them. *)
  let module Q = Dcsim.Event_queue in
  let q = Q.create () in
  let time i = if i < 16 then 100 - i else 1000 + i in
  let handles = Array.init 64 (fun i -> Q.push q (Simtime.of_ns (time i)) i) in
  Array.iteri
    (fun i h -> if i < 16 && i mod 2 = 0 then checkb "cancel" true (Q.cancel q h))
    handles;
  checki "length" 56 (Q.length q);
  let expected =
    List.filter (fun i -> i mod 2 = 1) (List.init 16 (fun i -> 15 - i))
    @ List.init 48 (( + ) 16)
  in
  Alcotest.(check (list int)) "order" expected (drain_payloads q)

let test_queue_cancel_positions () =
  (* One cancel per fresh queue, of each entry in turn: the root, the
     last position, and interior entries. Pushed in this order the heap
     is the array itself, so cancelling 101 (position 3) moves the last
     entry, the second 1, under 100: it must sift up, or 100 pops
     first. The two 1s must still pop in push order. *)
  let times = [| 0; 100; 1; 101; 102; 150; 1 |] in
  let n = Array.length times in
  for k = 0 to n - 1 do
    let q = Dcsim.Event_queue.create () in
    let handles =
      Array.mapi (fun i t -> Dcsim.Event_queue.push q (Simtime.of_ns t) i) times
    in
    checkb "cancel" true (Dcsim.Event_queue.cancel q handles.(k));
    let expected =
      List.stable_sort
        (fun a b -> compare times.(a) times.(b))
        (List.filter (( <> ) k) (List.init n Fun.id))
    in
    Alcotest.(check (list int))
      (Printf.sprintf "order after cancelling #%d" k)
      expected (drain_payloads q)
  done

(* --- Ring --- *)

let test_ring_basics () =
  let r = Dcsim.Ring.create ~capacity:3 in
  checkb "empty" true (Dcsim.Ring.is_empty r);
  checkb "no latest" true (Dcsim.Ring.latest r = None);
  Dcsim.Ring.push r 1.0;
  Dcsim.Ring.push r 2.0;
  checki "len" 2 (Dcsim.Ring.length r);
  checkb "latest" true (Dcsim.Ring.latest r = Some 2.0);
  Dcsim.Ring.push r 3.0;
  Dcsim.Ring.push r 4.0;
  (* Capacity 3: the 1.0 fell off. *)
  checki "capped" 3 (Dcsim.Ring.length r);
  checkb "latest after wrap" true (Dcsim.Ring.latest r = Some 4.0);
  check (Alcotest.float 0.0) "fold oldest-first" 9.0
    (Dcsim.Ring.fold ( +. ) 0.0 r);
  checki "count" 2 (Dcsim.Ring.count (fun x -> x > 2.5) r);
  let scratch = Array.make 3 0.0 in
  let n = Dcsim.Ring.filter_into (fun x -> x > 2.5) r scratch in
  checki "filtered" 2 n;
  check (Alcotest.float 0.0) "median of filtered" 3.5
    (Dcsim.Stats.median_in_place scratch n)

(* --- Fifo --- *)

(* The queue overwrites a popped slot at once, so what it handed back
   is garbage as soon as the caller drops it, while the queue and its
   other elements live on. *)
let test_fifo_pop_releases () =
  let q = Dcsim.Fifo.create () in
  let popped = Weak.create 1 in
  let[@inline never] push_and_pop fresh =
    Weak.set popped 0 (Some fresh);
    Dcsim.Fifo.push q fresh;
    Dcsim.Fifo.push q (Bytes.make 16 'b');
    ignore (Sys.opaque_identity (Dcsim.Fifo.pop q))
  in
  push_and_pop (Bytes.make 16 'a');
  Gc.full_major ();
  checkb "popped element collected" true (Option.is_none (Weak.get popped 0));
  checki "queue still holds one" 1 (Dcsim.Fifo.length q);
  check Alcotest.string "the other one" "bbbbbbbbbbbbbbbb"
    (Bytes.to_string (Dcsim.Fifo.pop q));
  checkb "now empty" true (Dcsim.Fifo.is_empty q);
  Alcotest.check_raises "pop when empty" (Invalid_argument "Fifo.pop: empty")
    (fun () -> ignore (Dcsim.Fifo.pop q));
  Alcotest.check_raises "peek when empty" (Invalid_argument "Fifo.peek: empty")
    (fun () -> ignore (Dcsim.Fifo.peek q))

let test_median_in_place () =
  let a = [| 5.0; 1.0; 3.0; 0.0; 0.0 |] in
  check (Alcotest.float 0.0) "prefix median" 3.0 (Dcsim.Stats.median_in_place a 3);
  check (Alcotest.float 0.0) "empty" 0.0
    (Dcsim.Stats.median_in_place [| 1.0 |] 0)

(* --- Engine --- *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.at e (Simtime.of_us 3.0) (fun () -> log := 3 :: !log));
  ignore (Engine.at e (Simtime.of_us 1.0) (fun () -> log := 1 :: !log));
  ignore (Engine.at e (Simtime.of_us 2.0) (fun () -> log := 2 :: !log));
  Engine.run e;
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log);
  checki "clock" 3_000 (Simtime.to_ns (Engine.now e));
  checki "processed" 3 (Engine.events_processed e)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.at e (Simtime.of_us 1.0) (fun () -> incr fired));
  ignore (Engine.at e (Simtime.of_us 10.0) (fun () -> incr fired));
  Engine.run ~until:(Simtime.of_us 5.0) e;
  checki "only first" 1 !fired;
  checki "clock at limit" 5_000 (Simtime.to_ns (Engine.now e));
  Engine.run e;
  checki "rest" 2 !fired

(* The clock-parking rules of [run ~until]: the limit is inclusive,
   and the clock parks on it only while a later event is queued. *)
let test_engine_until_inclusive () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Engine.at e (Simtime.of_ns t) (fun () -> fired := t :: !fired)))
    [ 10; 20 ];
  Engine.run ~until:(Simtime.of_ns 10) e;
  check (Alcotest.list Alcotest.int) "event at the limit fired" [ 10 ] !fired;
  checki "clock at the limit" 10 (Simtime.to_ns (Engine.now e))

let test_engine_until_drained_early () =
  let e = Engine.create () in
  ignore (Engine.at e (Simtime.of_ns 10) (fun () -> ()));
  Engine.run ~until:(Simtime.of_ns 100) e;
  checki "clock stays on the last event" 10 (Simtime.to_ns (Engine.now e))

(* Regression: a limit below the clock used to park the clock on the
   limit, moving time backwards so [at] accepted an event in the past. *)
let test_engine_until_never_backwards () =
  let e = Engine.create () in
  ignore (Engine.at e (Simtime.of_ns 10) (fun () -> ()));
  Engine.run e;
  ignore (Engine.at e (Simtime.of_ns 50) (fun () -> ()));
  Engine.run ~until:(Simtime.of_ns 5) e;
  checki "clock did not move back" 10 (Simtime.to_ns (Engine.now e));
  checkb "the past is still rejected" true
    (try
       ignore (Engine.at e (Simtime.of_ns 7) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_after_and_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.after e (Simtime.span_us 2.0) (fun () -> fired := true) in
  checkb "cancel" true (Engine.cancel e h);
  Engine.run e;
  checkb "not fired" false !fired

let test_engine_rejects_past () =
  let e = Engine.create () in
  ignore (Engine.at e (Simtime.of_us 5.0) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past schedule"
    (Invalid_argument "Engine.at: 1.0us is before current time 5.0us")
    (fun () -> ignore (Engine.at e (Simtime.of_us 1.0) (fun () -> ())))

let test_engine_rejects_never () =
  (* [never] is the queue's "empty" sentinel: an event there was
     accepted, then stranded, since [run] and [Cluster.run] read
     [min_time = never] as an empty queue. *)
  let e = Engine.create () in
  let noop () = () in
  Alcotest.check_raises "at never" (Invalid_argument "Engine.at: Simtime.never")
    (fun () -> ignore (Engine.at e Simtime.never noop));
  checki "nothing queued" 0 (Engine.pending_events e);
  ignore (Engine.at e (Simtime.of_ns 10) noop);
  Engine.run e;
  Alcotest.check_raises "after onto never"
    (Invalid_argument "Engine.at: Simtime.never")
    (fun () -> ignore (Engine.after e (Simtime.span_ns (max_int - 10)) noop));
  Alcotest.check_raises "after overflows"
    (Invalid_argument "Engine.after: 10ns + 4611686018.427s overflows Simtime")
    (fun () -> ignore (Engine.after e (Simtime.span_ns max_int) noop))

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e (Simtime.span_us 10.0) (fun () ->
      incr count;
      if !count >= 4 then `Stop else `Continue);
  Engine.run e;
  checki "four ticks" 4 !count;
  checki "stopped at" 40_000 (Simtime.to_ns (Engine.now e))

(* Regression: a periodic task kicked off from inside an event with
   [~start] at (or before) the current instant must begin now, not
   raise for scheduling in the past. *)
let test_engine_every_past_start_clamps () =
  let e = Engine.create () in
  let fire_times = ref [] in
  ignore
    (Engine.at e (Simtime.of_us 5.0) (fun () ->
         Engine.every e ~start:Simtime.zero (Simtime.span_us 10.0) (fun () ->
             fire_times := Simtime.to_ns (Engine.now e) :: !fire_times;
             if List.length !fire_times >= 3 then `Stop else `Continue)));
  Engine.run e;
  Alcotest.check (Alcotest.list Alcotest.int) "clamped to now, then periodic"
    [ 5_000; 15_000; 25_000 ]
    (List.rev !fire_times)

let test_engine_stop () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore
    (Engine.at e (Simtime.of_us 1.0) (fun () ->
         incr fired;
         Engine.stop e));
  ignore (Engine.at e (Simtime.of_us 2.0) (fun () -> incr fired));
  Engine.run e;
  checki "stopped early" 1 !fired

(* --- Rng --- *)

let test_rng_determinism () =
  let draw seed =
    let r = Dcsim.Rng.create ~seed in
    List.init 10 (fun _ -> Dcsim.Rng.int r 1000)
  in
  check (Alcotest.list Alcotest.int) "same seed same stream" (draw 7) (draw 7);
  checkb "different seeds differ" true (draw 7 <> draw 8)

let test_rng_split_stable () =
  let r1 = Dcsim.Rng.create ~seed:1 in
  let r2 = Dcsim.Rng.create ~seed:1 in
  let a = Dcsim.Rng.split r1 "x" and b = Dcsim.Rng.split r2 "x" in
  checki "split streams agree" (Dcsim.Rng.int a 1_000_000) (Dcsim.Rng.int b 1_000_000)

let test_rng_distributions () =
  let r = Dcsim.Rng.create ~seed:3 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dcsim.Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  checkb "exponential mean ~5" true (Float.abs (mean -. 5.0) < 0.3);
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dcsim.Rng.gaussian r ~mu:2.0 ~sigma:1.0
  done;
  checkb "gaussian mean ~2" true (Float.abs ((!sum /. float_of_int n) -. 2.0) < 0.1)

(* --- Stats --- *)

let test_summary () =
  let s = Dcsim.Stats.Summary.create () in
  List.iter (Dcsim.Stats.Summary.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  checki "count" 4 (Dcsim.Stats.Summary.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Dcsim.Stats.Summary.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Dcsim.Stats.Summary.min s);
  check (Alcotest.float 1e-9) "max" 4.0 (Dcsim.Stats.Summary.max s);
  check (Alcotest.float 1e-6) "variance" (5.0 /. 3.0)
    (Dcsim.Stats.Summary.variance s)

let test_summary_empty () =
  let s = Dcsim.Stats.Summary.create () in
  check (Alcotest.float 0.0) "mean empty" 0.0 (Dcsim.Stats.Summary.mean s);
  check (Alcotest.float 0.0) "stddev empty" 0.0 (Dcsim.Stats.Summary.stddev s);
  (* No observations: min/max are nan ("no data"), not a fabricated 0
     that a dashboard would read as a real measurement. *)
  checkb "min empty is nan" true (Float.is_nan (Dcsim.Stats.Summary.min s));
  checkb "max empty is nan" true (Float.is_nan (Dcsim.Stats.Summary.max s));
  Dcsim.Stats.Summary.add s 3.0;
  check (Alcotest.float 0.0) "min after add" 3.0 (Dcsim.Stats.Summary.min s);
  Dcsim.Stats.Summary.clear s;
  checkb "cleared min is nan again" true
    (Float.is_nan (Dcsim.Stats.Summary.min s))

let test_histogram_percentiles () =
  let h = Dcsim.Stats.Histogram.create () in
  for i = 1 to 1000 do
    Dcsim.Stats.Histogram.add h (float_of_int i)
  done;
  let p50 = Dcsim.Stats.Histogram.percentile h 50.0 in
  let p99 = Dcsim.Stats.Histogram.percentile h 99.0 in
  checkb "p50 near 500" true (Float.abs (p50 -. 500.0) < 15.0);
  checkb "p99 near 990" true (Float.abs (p99 -. 990.0) < 25.0);
  checkb "p99 >= p50" true (p99 >= p50);
  check (Alcotest.float 2.0) "mean" 500.5 (Dcsim.Stats.Histogram.mean h)

let test_histogram_large_values () =
  let h = Dcsim.Stats.Histogram.create () in
  Dcsim.Stats.Histogram.add h 1.0e6;
  Dcsim.Stats.Histogram.add h 2.0e6;
  let p99 = Dcsim.Stats.Histogram.percentile h 99.0 in
  (* Geometric buckets: bounded relative error. *)
  checkb "tail relative error" true (Float.abs (p99 -. 2.0e6) /. 2.0e6 < 0.05)

let test_median () =
  check (Alcotest.float 0.0) "odd" 3.0 (Dcsim.Stats.median [ 5.0; 1.0; 3.0 ]);
  check (Alcotest.float 0.0) "even" 2.5 (Dcsim.Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check (Alcotest.float 0.0) "empty" 0.0 (Dcsim.Stats.median [])

(* --- Property tests --- *)

(* Reference model for the event queue: every pushed entry, by push
   index, with its time and fate. The next event is the live entry with
   the least (time, push index). Payloads are push indexes, so a tie
   broken out of order shows up; times span only 0-7, so ties are
   everywhere. A push-heavy prefix grows the queue's arrays through
   several doublings and a cancel-heavy tail then removes entries from
   every heap position. Cancels pick any entry ever pushed, fired and
   cancelled ones included, whose slots newer events may now hold. *)
type model_fate = Live | Cancelled | Fired

let queue_op_gen ~push ~cancel ~pop =
  QCheck2.Gen.(
    frequency
      [
        (push, map (fun t -> `Push t) (int_range 0 7));
        (cancel, map (fun k -> `Cancel k) nat);
        (pop, pure `Pop);
        (1, pure `Min);
      ])

let prop_event_queue_model =
  QCheck2.Test.make ~name:"event queue matches a (time, push index) model"
    ~count:200
    QCheck2.Gen.(
      map2 ( @ )
        (list_size (int_range 70 150) (queue_op_gen ~push:8 ~cancel:1 ~pop:1))
        (list_size (int_range 50 200) (queue_op_gen ~push:2 ~cancel:6 ~pop:2)))
    (fun ops ->
      let module Q = Dcsim.Event_queue in
      let q = Q.create () in
      let n = List.length ops in
      let times = Array.make n 0 and fates = Array.make n Fired in
      let handles = Array.make n None and pushed = ref 0 in
      let next () =
        let best = ref (-1) in
        for i = !pushed - 1 downto 0 do
          if fates.(i) = Live && (!best < 0 || times.(i) <= times.(!best)) then
            best := i
        done;
        !best
      in
      let live () = Array.fold_left (fun n f -> if f = Live then n + 1 else n) 0 fates in
      let step op =
        (match op with
        | `Push t ->
            let i = !pushed in
            times.(i) <- t;
            fates.(i) <- Live;
            handles.(i) <- Some (Q.push q (Simtime.of_ns t) i);
            incr pushed;
            true
        | `Cancel k when !pushed > 0 ->
            let i = k mod !pushed in
            let expected = fates.(i) = Live in
            if expected then fates.(i) <- Cancelled;
            Q.cancel q (Option.get handles.(i)) = expected
        | `Cancel _ -> true
        | `Pop -> (
            match next () with
            | -1 -> (try ignore (Q.pop_min q); false with Invalid_argument _ -> true)
            | i ->
                fates.(i) <- Fired;
                Q.pop_min q = i)
        | `Min -> (
            match next () with
            | -1 -> Q.min_time q = Simtime.never
            | i -> Simtime.to_ns (Q.min_time q) = times.(i)))
        && Q.length q = live ()
      in
      let rec drain () =
        match next () with
        | -1 -> Q.is_empty q && Q.min_time q = Simtime.never
        | i ->
            fates.(i) <- Fired;
            Simtime.to_ns (Q.min_time q) = times.(i) && Q.pop_min q = i && drain ()
      in
      List.for_all step ops && drain ())

let prop_event_queue_length_under_churn =
  (* Random interleavings of push / cancel / pop (including cancels of
     handles that already fired): [length] must always equal the number
     of live events — the invariant the cancel-after-pop bug broke. *)
  QCheck2.Test.make ~name:"event queue length consistent under churn" ~count:200
    QCheck2.Gen.(list_size (int_range 1 200) (pair (int_range 0 1000) (int_range 0 99)))
    (fun ops ->
      let q = Dcsim.Event_queue.create () in
      let handles = ref [] in
      let live = ref 0 in
      List.iter
        (fun (t, action) ->
          if action < 55 then begin
            handles := Dcsim.Event_queue.push q (Simtime.of_ns t) t :: !handles;
            incr live
          end
          else if action < 85 then begin
            match !handles with
            | [] -> ()
            | h :: rest ->
                handles := rest;
                if Dcsim.Event_queue.cancel q h then decr live
          end
          else begin
            match Dcsim.Event_queue.pop q with
            | Some _ -> decr live
            | None -> ()
          end)
        ops;
      let consistent = Dcsim.Event_queue.length q = !live in
      let rec drain n =
        match Dcsim.Event_queue.pop q with None -> n | Some _ -> drain (n + 1)
      in
      consistent && drain 0 = !live)

(* [Stdlib.Queue] is the reference for [Dcsim.Fifo]. Each sequence
   runs in phases: balanced, so the head wraps and the next growth
   unrolls a wrapped array; push-heavy, so the array doubles from 8 to
   64 or more slots; balanced again, so the head wraps the larger array;
   then pop-heavy until it drains, popping and peeking when empty too. *)
let prop_fifo_model =
  let ops ~push ~pop lo hi =
    QCheck2.Gen.(
      list_size (int_range lo hi)
        (frequency
           [ (push, pure `Push); (pop, pure `Pop); (1, pure `Peek) ]))
  in
  QCheck2.Test.make ~name:"fifo matches Stdlib.Queue" ~count:200
    QCheck2.Gen.(
      map List.concat
        (flatten_l
           [
             ops ~push:3 ~pop:3 10 40;
             ops ~push:6 ~pop:1 80 160;
             ops ~push:3 ~pop:3 100 300;
             ops ~push:1 ~pop:6 100 200;
           ]))
    (fun ops ->
      let module Fifo = Dcsim.Fifo in
      let q = Fifo.create () and model = Queue.create () in
      let next = ref 0 in
      (* Both return the same element, or both refuse an empty queue. *)
      let same f g =
        let model = match g () with x -> Some x | exception Queue.Empty -> None in
        match f () with
        | x -> model = Some x
        | exception Invalid_argument _ -> model = None
      in
      let step op =
        (match op with
        | `Push ->
            Fifo.push q !next;
            Queue.push !next model;
            incr next;
            true
        | `Pop -> same (fun () -> Fifo.pop q) (fun () -> Queue.pop model)
        | `Peek -> same (fun () -> Fifo.peek q) (fun () -> Queue.peek model))
        && Fifo.length q = Queue.length model
        && Fifo.is_empty q = Queue.is_empty model
      in
      let rec drain () =
        Queue.is_empty model
        || (Fifo.pop q = Queue.pop model && drain ())
      in
      List.for_all step ops && drain () && Fifo.is_empty q)

let prop_histogram_percentile_monotone =
  QCheck2.Test.make ~name:"histogram percentiles are monotone" ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (float_bound_exclusive 100000.0))
    (fun values ->
      let h = Dcsim.Stats.Histogram.create () in
      List.iter (Dcsim.Stats.Histogram.add h) values;
      let ps = [ 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let vs = List.map (Dcsim.Stats.Histogram.percentile h) ps in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone vs)

let prop_summary_mean_bounds =
  QCheck2.Test.make ~name:"summary mean within min/max" ~count:200
    QCheck2.Gen.(list_size (int_range 1 100) (float_bound_exclusive 1000.0))
    (fun values ->
      let s = Dcsim.Stats.Summary.create () in
      List.iter (Dcsim.Stats.Summary.add s) values;
      let m = Dcsim.Stats.Summary.mean s in
      m >= Dcsim.Stats.Summary.min s -. 1e-9
      && m <= Dcsim.Stats.Summary.max s +. 1e-9)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "simtime conversions" test_time_conversions;
    t "simtime arithmetic" test_time_arithmetic;
    t "span operations" test_span_ops;
    t "serialization delay" test_serialization_delay;
  ]
  @ List.map
      (fun (name, convert, values) ->
        t (Printf.sprintf "simtime %s checked" name)
          (rejects name convert values))
      conversion_cases
  @ [
    t "event queue ordering" test_queue_ordering;
    t "event queue fifo ties" test_queue_fifo_ties;
    t "event queue cancel" test_queue_cancel;
    t "event queue cancel after pop" test_queue_cancel_after_pop;
    t "event queue order after mass cancel" test_queue_order_after_mass_cancel;
    t "event queue stale handle after reuse" test_queue_stale_handle_after_reuse;
    t "event queue handles survive growth" test_queue_handles_survive_growth;
    t "event queue cancel root/last/interior" test_queue_cancel_positions;
    t "event queue peek skips cancelled" test_queue_peek_skips_cancelled;
    t "ring buffer basics" test_ring_basics;
    t "fifo releases popped elements" test_fifo_pop_releases;
    t "median in place" test_median_in_place;
    t "engine runs in order" test_engine_runs_in_order;
    t "engine until" test_engine_until;
    t "engine until is inclusive" test_engine_until_inclusive;
    t "engine until drained early keeps clock" test_engine_until_drained_early;
    t "engine until never moves clock back" test_engine_until_never_backwards;
    t "engine after/cancel" test_engine_after_and_cancel;
    t "engine rejects past" test_engine_rejects_past;
    t "engine rejects never and overflow" test_engine_rejects_never;
    t "engine every" test_engine_every;
    t "engine every past start clamps" test_engine_every_past_start_clamps;
    t "engine stop" test_engine_stop;
    t "rng determinism" test_rng_determinism;
    t "rng split stable" test_rng_split_stable;
    t "rng distribution means" test_rng_distributions;
    t "summary statistics" test_summary;
    t "summary empty" test_summary_empty;
    t "histogram percentiles" test_histogram_percentiles;
    t "histogram tail error" test_histogram_large_values;
    t "median" test_median;
    QCheck_alcotest.to_alcotest prop_event_queue_model;
    QCheck_alcotest.to_alcotest prop_event_queue_length_under_churn;
    QCheck_alcotest.to_alcotest prop_fifo_model;
    QCheck_alcotest.to_alcotest prop_histogram_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_summary_mean_bounds;
  ]
