(* Tests for the TCP model: in-order delivery, congestion control, fast
   retransmit, RTO, delayed acks, and behaviour under loss/reordering. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey
module Tcp = Tcpmodel.Tcp_conn

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let tenant = Netcore.Tenant.of_int 7

let flow () =
  Fkey.make
    ~src_ip:(Netcore.Ipv4.of_string "10.7.0.1")
    ~dst_ip:(Netcore.Ipv4.of_string "10.7.0.2")
    ~src_port:5000 ~dst_port:5001 ~proto:Fkey.Tcp ~tenant

(* A controllable network: one-way latency, per-packet drop decided by a
   callback, optional reordering. *)
type net = {
  engine : Engine.t;
  latency : Simtime.span;
  mutable drop_data : Packet.t -> bool;
  mutable drop_ack : Packet.t -> bool;
  mutable conn : Tcp.t option;
}

let make_net ?(latency_us = 50.0) () =
  {
    engine = Engine.create ();
    latency = Simtime.span_us latency_us;
    drop_data = (fun _ -> false);
    drop_ack = (fun _ -> false);
    conn = None;
  }

(* [after_ack] runs right after each ack reaches the sender. *)
let connect ?receive_window ?(after_ack = ignore) net =
  let c =
    Tcp.create ~engine:net.engine ?receive_window ~flow:(flow ())
      ~transmit_data:(fun pkt ->
        if not (net.drop_data pkt) then
          ignore
            (Engine.after net.engine net.latency (fun () ->
                 Tcp.deliver_to_receiver (Option.get net.conn) pkt)))
      ~transmit_ack:(fun pkt ->
        if not (net.drop_ack pkt) then
          ignore
            (Engine.after net.engine net.latency (fun () ->
                 let c = Option.get net.conn in
                 Tcp.deliver_to_sender c pkt;
                 after_ack c)))
      ()
  in
  net.conn <- Some c;
  c

let run net seconds =
  Engine.run ~until:(Simtime.of_sec seconds) net.engine

let test_lossless_transfer () =
  let net = make_net () in
  let c = connect net in
  Tcp.send c 1_000_000;
  run net 2.0;
  checki "all acked" 1_000_000 (Tcp.bytes_acked c);
  checki "no retransmits" 0 (Tcp.fast_retransmits c);
  checki "no timeouts" 0 (Tcp.timeouts c);
  checki "nothing queued" 0 (Tcp.bytes_queued c)

let test_delivery_watermark () =
  let net = make_net () in
  let c = connect net in
  let watermark = ref 0 in
  Tcp.on_delivered c (fun w -> watermark := w);
  Tcp.send c 50_000;
  run net 1.0;
  checki "watermark reaches total" 50_000 !watermark

let test_delayed_acks_on_trickle () =
  (* One small segment: the receiver must fall back to the delack timer. *)
  let net = make_net () in
  let c = connect net in
  Tcp.send c 100;
  run net 1.0;
  checki "acked" 100 (Tcp.bytes_acked c);
  checki "one delayed ack" 1 (Tcp.delayed_acks_sent c)

let test_single_loss_fast_retransmit () =
  let net = make_net () in
  let c = connect net in
  let dropped = ref false in
  (* Drop exactly one mid-stream segment once the flow is warmed up. *)
  net.drop_data <-
    (fun pkt ->
      match pkt.Packet.l4 with
      | Packet.Tcp_seg { seq; _ } when seq > 100_000 && not !dropped ->
          dropped := true;
          true
      | _ -> false);
  Tcp.send c 2_000_000;
  run net 3.0;
  checkb "dropped one" true !dropped;
  checki "all acked despite loss" 2_000_000 (Tcp.bytes_acked c);
  checki "exactly one recovery" 1 (Tcp.recoveries c);
  checki "no timeout" 0 (Tcp.timeouts c);
  checkb "dupacks observed" true (Tcp.dupacks_received c >= 3)

let test_burst_loss_newreno () =
  let net = make_net () in
  let c = connect net in
  let drops = ref 0 in
  net.drop_data <-
    (fun pkt ->
      match pkt.Packet.l4 with
      | Packet.Tcp_seg { seq; _ }
        when seq > 100_000 && seq < 130_000 && !drops < 10 ->
          incr drops;
          true
      | _ -> false);
  Tcp.send c 2_000_000;
  run net 5.0;
  checki "all acked despite burst loss" 2_000_000 (Tcp.bytes_acked c);
  checkb "several fast retransmits" true (Tcp.fast_retransmits c >= !drops - 2);
  checki "no timeout (newreno recovers)" 0 (Tcp.timeouts c)

let test_blackhole_rto () =
  let net = make_net () in
  let c = connect net in
  (* Drop everything: only the RTO can fire. *)
  net.drop_data <- (fun _ -> true);
  Tcp.send c 10_000;
  run net 10.0;
  checki "nothing acked" 0 (Tcp.bytes_acked c);
  checkb "timeouts fired with backoff" true (Tcp.timeouts c >= 2);
  checkb "cwnd collapsed" true (Tcp.cwnd c <= 2 * Netcore.Hdr.max_tcp_payload)

let test_ack_loss_tolerated () =
  (* Cumulative acks make sparse ack loss harmless. *)
  let net = make_net () in
  let c = connect net in
  let count = ref 0 in
  net.drop_ack <-
    (fun _ ->
      incr count;
      !count mod 3 = 0);
  Tcp.send c 500_000;
  run net 3.0;
  checki "all acked" 500_000 (Tcp.bytes_acked c)

let test_cwnd_growth_slow_start () =
  let net = make_net () in
  let c = connect net in
  let initial = Tcp.cwnd c in
  Tcp.send c 400_000;
  run net 0.5;
  checkb "cwnd grew" true (Tcp.cwnd c > initial)

let test_loss_halves_cwnd () =
  (* A long-latency path so the transfer is still running when the
     dropper arms (the model has no bandwidth limit of its own). *)
  let net = make_net ~latency_us:5000.0 () in
  let c = connect net in
  Tcp.send c 40_000_000;
  run net 0.05;
  let before = Tcp.cwnd c in
  let dropped = ref false in
  net.drop_data <-
    (fun _ ->
      if !dropped then false
      else begin
        dropped := true;
        true
      end);
  run net 1.0;
  net.drop_data <- (fun _ -> false);
  run net 60.0;
  checkb "loss detected" true !dropped;
  checkb "ssthresh below pre-loss cwnd" true (Tcp.ssthresh c < before);
  checki "transfer completed" 40_000_000 (Tcp.bytes_acked c)

let test_receive_window_caps_flight () =
  let net = make_net ~latency_us:5000.0 () in
  let c = connect ~receive_window:(8 * 1460) net in
  Tcp.send c 1_000_000;
  run net 0.02;
  checkb "flight within rwnd" true (Tcp.in_flight c <= 8 * 1460)

let test_sequence_trace_monotone () =
  let net = make_net () in
  let c = connect net in
  let dropped = ref 0 in
  net.drop_data <-
    (fun _ ->
      incr dropped;
      !dropped mod 97 = 0);
  Tcp.send c 1_000_000;
  run net 5.0;
  let trace = Tcp.sequence_trace c in
  checkb "non-empty" true (Tcp.Trace.length trace > 10);
  let monotone = ref true and last_t = ref Simtime.zero and last_b = ref 0 in
  Tcp.Trace.iter
    (fun t b ->
      monotone := !monotone && Simtime.(!last_t <= t) && !last_b <= b;
      last_t := t;
      last_b := b)
    trace;
  checkb "trace monotone in time and bytes" true !monotone

(* The trace store keeps 4,096 samples per chunk. *)
let chunk_samples = 4096

let test_sequence_trace_matches_list () =
  (* Differential check: the harness records (now, bytes acked) every
     time the cumulative ack rises, in a plain list, and the store must
     hold exactly those samples across several chunk boundaries. *)
  let net = make_net () in
  let expected = ref [] and last = ref 0 in
  let after_ack c =
    let acked = Tcp.bytes_acked c in
    if acked > !last then begin
      last := acked;
      expected := (Simtime.to_ns (Engine.now net.engine), acked) :: !expected
    end
  in
  let c = connect ~after_ack net in
  let dropped = ref 0 in
  net.drop_data <-
    (fun _ ->
      incr dropped;
      !dropped mod 97 = 0);
  Tcp.send c 60_000_000;
  run net 30.0;
  checki "all acked" 60_000_000 (Tcp.bytes_acked c);
  let trace = Tcp.sequence_trace c in
  let n = Tcp.Trace.length trace in
  checkb "crosses 3 chunk boundaries" true (n > 3 * chunk_samples);
  checki "length" (List.length !expected) n;
  let rest = ref (List.rev !expected) and index = ref 0 in
  Tcp.Trace.iter
    (fun t b ->
      let t = Simtime.to_ns t in
      (match !rest with
      | (t', b') :: tail when t = t' && b = b' -> rest := tail
      | (t', b') :: _ ->
          Alcotest.failf "sample %d: stored (%d ns, %d) but listed (%d ns, %d)"
            !index t b t' b'
      | [] -> Alcotest.failf "sample %d: stored (%d ns, %d) but not listed" !index t b);
      incr index)
    trace;
  checki "every listed sample stored" 0 (List.length !rest)

let test_sequence_trace_footprint () =
  (* A boxed (time, bytes) list costs 6 words a sample (cons cell and
     tuple); the store costs 2, plus at most one partly filled chunk
     (4,096 samples and a header) and a few words of view and spine. *)
  let net = make_net () in
  let c = connect net in
  Tcp.send c 200_000_000;
  run net 30.0;
  let trace = Tcp.sequence_trace c in
  let n = Tcp.Trace.length trace in
  checkb "at least 50,000 samples" true (n >= 50_000);
  let words = Obj.reachable_words (Obj.repr trace) in
  let bound = (2 * n) + (2 * chunk_samples) + 1 + 64 in
  if words > bound then
    Alcotest.failf "trace of %d samples holds %d words (%.2f a sample) > %d" n
      words
      (float_of_int words /. float_of_int n)
      bound

let test_srtt_measured () =
  let net = make_net ~latency_us:100.0 () in
  let c = connect net in
  Tcp.send c 100_000;
  run net 1.0;
  match Tcp.srtt c with
  | Some srtt ->
      let us = Simtime.span_to_us srtt in
      checkb "srtt near 2x one-way latency" true (us > 150.0 && us < 400.0)
  | None -> Alcotest.fail "expected an RTT estimate"

(* Property: under random i.i.d. loss the transfer still completes and
   the trace stays monotone. *)
let prop_random_loss_completes =
  QCheck2.Test.make ~name:"tcp completes under random loss" ~count:15
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 1 8))
    (fun (seed, loss_pct) ->
      let net = make_net () in
      let rng = Dcsim.Rng.create ~seed in
      net.drop_data <- (fun _ -> Dcsim.Rng.int rng 100 < loss_pct);
      let c = connect net in
      Tcp.send c 300_000;
      run net 30.0;
      Tcp.bytes_acked c = 300_000)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "lossless transfer" test_lossless_transfer;
    t "delivery watermark" test_delivery_watermark;
    t "delayed ack on trickle" test_delayed_acks_on_trickle;
    t "single loss fast retransmit" test_single_loss_fast_retransmit;
    t "burst loss newreno" test_burst_loss_newreno;
    t "blackhole rto backoff" test_blackhole_rto;
    t "ack loss tolerated" test_ack_loss_tolerated;
    t "slow start growth" test_cwnd_growth_slow_start;
    t "loss halves cwnd" test_loss_halves_cwnd;
    t "receive window caps flight" test_receive_window_caps_flight;
    t "sequence trace monotone" test_sequence_trace_monotone;
    t "sequence trace matches list" test_sequence_trace_matches_list;
    t "sequence trace footprint" test_sequence_trace_footprint;
    t "srtt measured" test_srtt_measured;
    QCheck_alcotest.to_alcotest prop_random_loss_completes;
  ]
