(* Tests for token buckets, the tc-style HTB hierarchy, and shapers. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let tenant = Netcore.Tenant.of_int 7

let flow () =
  Fkey.make
    ~src_ip:(Netcore.Ipv4.of_string "10.7.0.1")
    ~dst_ip:(Netcore.Ipv4.of_string "10.7.0.2")
    ~src_port:1 ~dst_port:2 ~proto:Fkey.Tcp ~tenant

let mbps m = Rules.Rate_limit_spec.make ~rate_bps:(m *. 1e6) ()

(* --- Token bucket --- *)

let test_bucket_conform_within_burst () =
  let spec = Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:10_000 () in
  let b = Shaping.Token_bucket.create spec ~now:Simtime.zero in
  checkb "full burst conforms" true
    (Shaping.Token_bucket.try_consume b ~now:Simtime.zero ~bytes_len:10_000);
  checkb "empty now" false
    (Shaping.Token_bucket.try_consume b ~now:Simtime.zero ~bytes_len:1)

let test_bucket_refill () =
  let spec = Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:10_000 () in
  let b = Shaping.Token_bucket.create spec ~now:Simtime.zero in
  ignore (Shaping.Token_bucket.try_consume b ~now:Simtime.zero ~bytes_len:10_000);
  (* 8 Mb/s = 1 MB/s: after 5 ms, 5000 bytes back. *)
  let later = Simtime.of_ms 5.0 in
  checkb "refilled 5000" true
    (Shaping.Token_bucket.try_consume b ~now:later ~bytes_len:5_000);
  checkb "but not more" false
    (Shaping.Token_bucket.try_consume b ~now:later ~bytes_len:100)

let test_bucket_cap_at_burst () =
  let spec = Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:1_000 () in
  let b = Shaping.Token_bucket.create spec ~now:Simtime.zero in
  (* A long idle period must not bank more than the burst. *)
  let much_later = Simtime.of_sec 100.0 in
  Alcotest.check (Alcotest.float 1.0) "capped" 1_000.0
    (Shaping.Token_bucket.available b ~now:much_later)

let test_bucket_time_until_conform () =
  let spec = Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:1_000 () in
  let b = Shaping.Token_bucket.create spec ~now:Simtime.zero in
  ignore (Shaping.Token_bucket.try_consume b ~now:Simtime.zero ~bytes_len:1_000);
  let wait =
    Shaping.Token_bucket.time_until_conform b ~now:Simtime.zero ~bytes_len:1_000
  in
  (* 1000 bytes at 1 MB/s = 1 ms. *)
  checki "1ms" 1_000_000 (Simtime.span_to_ns wait)

let test_bucket_unlimited () =
  let b = Shaping.Token_bucket.create Rules.Rate_limit_spec.unlimited ~now:Simtime.zero in
  checkb "always conforms" true
    (Shaping.Token_bucket.try_consume b ~now:Simtime.zero ~bytes_len:1_000_000);
  checki "no wait" 0
    (Simtime.span_to_ns
       (Shaping.Token_bucket.time_until_conform b ~now:Simtime.zero ~bytes_len:1_000_000))

let test_bucket_set_spec_clamps () =
  let b =
    Shaping.Token_bucket.create
      (Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:100_000 ())
      ~now:Simtime.zero
  in
  Shaping.Token_bucket.set_spec b
    (Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:500 ())
    ~now:Simtime.zero;
  checkb "clamped to new burst" true
    (Shaping.Token_bucket.available b ~now:Simtime.zero <= 500.0)

(* Regression: the unlimited bucket's token count is a sentinel
   (float max_int), not earned credit — switching to a limited spec
   must not grant a free full burst. *)
let test_bucket_unlimited_to_limited_starts_empty () =
  let b =
    Shaping.Token_bucket.create Rules.Rate_limit_spec.unlimited ~now:Simtime.zero
  in
  let later = Simtime.of_sec 10.0 in
  Shaping.Token_bucket.set_spec b
    (Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:10_000 ())
    ~now:later;
  Alcotest.check (Alcotest.float 0.0) "no free burst" 0.0
    (Shaping.Token_bucket.available b ~now:later);
  (* Earned credit accrues normally from the transition onward. *)
  checkb "refills at the new rate" true
    (Shaping.Token_bucket.try_consume b
       ~now:(Simtime.add later (Simtime.span_ms 5.0))
       ~bytes_len:5_000);
  (* Limited->limited keeps accumulated tokens (clamped), as before. *)
  let b2 =
    Shaping.Token_bucket.create
      (Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:10_000 ())
      ~now:Simtime.zero
  in
  Shaping.Token_bucket.set_spec b2
    (Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:20_000 ())
    ~now:Simtime.zero;
  Alcotest.check (Alcotest.float 0.0) "kept earned tokens" 10_000.0
    (Shaping.Token_bucket.available b2 ~now:Simtime.zero)

(* --- Shaper (needs an engine) --- *)

let test_shaper_passthrough_unlimited () =
  let engine = Engine.create () in
  let out = ref 0 in
  let s =
    Shaping.Shaper.create ~engine ~spec:Rules.Rate_limit_spec.unlimited
      ~forward:(fun _ -> incr out)
      ()
  in
  for _ = 1 to 10 do
    Shaping.Shaper.enqueue s
      (Packet.data_packet ~now:Simtime.zero ~flow:(flow ()) ~payload:1000)
  done;
  Engine.run engine;
  checki "all forwarded" 10 !out;
  checki "counted" 10 (Shaping.Shaper.forwarded s)

let test_shaper_enforces_rate () =
  let engine = Engine.create () in
  let out_times = ref [] in
  let spec = Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:1_500 () in
  let s =
    Shaping.Shaper.create ~engine ~spec
      ~forward:(fun _ -> out_times := Engine.now engine :: !out_times)
      ~size_of:(fun _ -> 1_000)
      ()
  in
  for _ = 1 to 11 do
    Shaping.Shaper.enqueue s
      (Packet.data_packet ~now:Simtime.zero ~flow:(flow ()) ~payload:1000)
  done;
  Engine.run engine;
  checki "all forwarded eventually" 11 (List.length !out_times);
  (* 11 KB through a 1 KB/ms pipe with 1.5 KB burst: ~>= 9 ms total. *)
  let last = List.hd !out_times in
  checkb "took at least 9ms" true Simtime.(last >= Simtime.of_ms 9.0);
  checkb "backlog recorded" true (Shaping.Shaper.backlogged_seconds s > 0.005)

let test_shaper_preserves_order () =
  let engine = Engine.create () in
  let order = ref [] in
  let spec = Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:1_000 () in
  let s =
    Shaping.Shaper.create ~engine ~spec
      ~forward:(fun p -> order := p.Packet.payload :: !order)
      ~size_of:(fun _ -> 1_000)
      ()
  in
  for i = 1 to 5 do
    Shaping.Shaper.enqueue s
      (Packet.data_packet ~now:Simtime.zero ~flow:(flow ()) ~payload:i)
  done;
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.int) "fifo" [ 1; 2; 3; 4; 5 ]
    (List.rev !order)

let test_shaper_set_spec_takes_effect () =
  let engine = Engine.create () in
  let out = ref 0 in
  let spec = Rules.Rate_limit_spec.make ~rate_bps:8.0 ~burst_bytes:1_000 () in
  let s =
    Shaping.Shaper.create ~engine ~spec
      ~forward:(fun _ -> incr out)
      ~size_of:(fun _ -> 1_000)
      ()
  in
  for _ = 1 to 3 do
    Shaping.Shaper.enqueue s
      (Packet.data_packet ~now:Simtime.zero ~flow:(flow ()) ~payload:0)
  done;
  (* At 1 B/s the tail would take ~2000 s; raising the limit releases it. *)
  Shaping.Shaper.set_spec s (mbps 100.0);
  Engine.run ~until:(Simtime.of_sec 1.0) engine;
  checki "released" 3 !out

(* --- Property: shaper long-run rate never exceeds the limit --- *)

let prop_shaper_rate_bound =
  QCheck2.Test.make ~name:"shaper long-run rate <= limit" ~count:25
    QCheck2.Gen.(pair (int_range 1 50) (int_range 500 2000))
    (fun (n_packets, pkt_size) ->
      let engine = Engine.create () in
      let spec = Rules.Rate_limit_spec.make ~rate_bps:8e6 ~burst_bytes:2_000 () in
      let last = ref Simtime.zero in
      let s =
        Shaping.Shaper.create ~engine ~spec
          ~forward:(fun _ -> last := Engine.now engine)
          ~size_of:(fun _ -> pkt_size)
          ()
      in
      for _ = 1 to n_packets do
        Shaping.Shaper.enqueue s
          (Packet.data_packet ~now:Simtime.zero ~flow:(flow ()) ~payload:0)
      done;
      Engine.run engine;
      let total_bytes = n_packets * pkt_size in
      let elapsed = Simtime.to_sec !last in
      (* bytes beyond the burst must take at least their serialization
         time at the configured rate. *)
      float_of_int (total_bytes - 2_000) /. 1e6 <= elapsed +. 1e-6)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "bucket conform within burst" test_bucket_conform_within_burst;
    t "bucket refill" test_bucket_refill;
    t "bucket cap at burst" test_bucket_cap_at_burst;
    t "bucket time until conform" test_bucket_time_until_conform;
    t "bucket unlimited" test_bucket_unlimited;
    t "bucket set_spec clamps" test_bucket_set_spec_clamps;
    t "bucket unlimited to limited starts empty"
      test_bucket_unlimited_to_limited_starts_empty;
    t "shaper passthrough" test_shaper_passthrough_unlimited;
    t "shaper enforces rate" test_shaper_enforces_rate;
    t "shaper preserves order" test_shaper_preserves_order;
    t "shaper set_spec" test_shaper_set_spec_takes_effect;
    QCheck_alcotest.to_alcotest prop_shaper_rate_bound;
  ]
