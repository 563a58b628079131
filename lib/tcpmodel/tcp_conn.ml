module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey

type config = {
  mss : int;
  init_cwnd_segments : int;
  rto_min : Simtime.span;
  delayed_ack_timeout : Simtime.span;
  receive_window : int;
}

let default_config =
  {
    mss = Netcore.Hdr.max_tcp_payload;
    init_cwnd_segments = 10;
    rto_min = Simtime.span_ms 200.0;
    delayed_ack_timeout = Simtime.span_ms 40.0;
    receive_window = 1 lsl 20;
  }

type t = {
  engine : Engine.t;
  config : config;
  flow : Fkey.t;
  transmit_data : Packet.t -> unit;
  transmit_ack : Packet.t -> unit;
  (* --- sender state --- *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable app_limit : int;  (* total bytes handed to send *)
  mutable cwnd : int;  (* bytes *)
  mutable ssthresh : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;  (* NewReno recovery point *)
  mutable srtt : float option;  (* seconds *)
  mutable rttvar : float;
  mutable rto : Simtime.span;
  mutable rto_backoff : int;
  mutable rto_timer : Engine.handle option;
  mutable rtt_probe : (int * Simtime.t) option;  (* (end seq, sent at) *)
  (* --- receiver state --- *)
  mutable rcv_nxt : int;
  mutable ooo : (int * int) list;  (* disjoint [start, stop) sorted *)
  mutable segs_since_ack : int;
  mutable delack_timer : Engine.handle option;
  (* --- stats --- *)
  mutable fast_retransmits : int;
  mutable recoveries : int;
  mutable timeouts : int;
  mutable dupacks_received : int;
  mutable delayed_acks_sent : int;
  mutable trace : (Simtime.t * int) list;  (* reversed *)
  mutable delivered_cb : int -> unit;
}

let create ~engine ~config ~flow ~transmit_data ~transmit_ack =
  {
    engine;
    config;
    flow;
    transmit_data;
    transmit_ack;
    snd_una = 0;
    snd_nxt = 0;
    app_limit = 0;
    cwnd = config.mss * config.init_cwnd_segments;
    ssthresh = max_int / 2;
    dupacks = 0;
    in_recovery = false;
    recover = 0;
    srtt = None;
    rttvar = 0.0;
    rto = Simtime.span_sec 1.0;
    rto_backoff = 0;
    rto_timer = None;
    rtt_probe = None;
    rcv_nxt = 0;
    ooo = [];
    segs_since_ack = 0;
    delack_timer = None;
    fast_retransmits = 0;
    recoveries = 0;
    timeouts = 0;
    dupacks_received = 0;
    delayed_acks_sent = 0;
    trace = [];
    delivered_cb = ignore;
  }

let on_delivered t cb = t.delivered_cb <- cb

(* ---------- timers ---------- *)

let cancel_rto t =
  match t.rto_timer with
  | None -> ()
  | Some h ->
      ignore (Engine.cancel t.engine h);
      t.rto_timer <- None

let effective_rto t =
  let base = Simtime.span_to_sec t.rto in
  Simtime.span_sec (base *. float_of_int (1 lsl t.rto_backoff))

let rec arm_rto t =
  cancel_rto t;
  if t.snd_nxt > t.snd_una then begin
    let handle = Engine.after t.engine (effective_rto t) (fun () -> on_rto t) in
    t.rto_timer <- Some handle
  end

(* ---------- segment emission ---------- *)

and emit_segment t ~seq ~len =
  let now = Engine.now t.engine in
  let flags = { Packet.syn = false; fin = false; is_ack = false } in
  (* A segment riding a multi-segment flight travels in a train and
     gets GSO/GRO treatment; isolated segments pay full wakeup costs. *)
  let bulk = t.snd_nxt - t.snd_una > 4 * t.config.mss in
  let pkt =
    Packet.create ~now ~flow:t.flow ~payload:len
      ~l4:(Packet.Tcp_seg { seq; ack = 0; len; flags })
      ~bulk ()
  in
  (* One unambiguous RTT probe at a time (Karn's rule: never time a
     retransmission). *)
  if t.rtt_probe = None && seq >= t.snd_nxt then
    t.rtt_probe <- Some (seq + len, now);
  t.transmit_data pkt

and try_send t =
  let window = Stdlib.min t.cwnd t.config.receive_window in
  let continue = ref true in
  while !continue do
    let available = t.app_limit - t.snd_nxt in
    let in_flight = t.snd_nxt - t.snd_una in
    let len = Stdlib.min t.config.mss available in
    if len > 0 && in_flight + len <= window then begin
      emit_segment t ~seq:t.snd_nxt ~len;
      t.snd_nxt <- t.snd_nxt + len;
      if t.rto_timer = None then arm_rto t
    end
    else continue := false
  done

and retransmit_first_unacked t =
  let len = Stdlib.min t.config.mss (t.app_limit - t.snd_una) in
  if len > 0 then begin
    (* A retransmission invalidates any in-flight RTT probe. *)
    t.rtt_probe <- None;
    emit_segment t ~seq:t.snd_una ~len
  end

and on_rto t =
  t.rto_timer <- None;
  if t.snd_nxt > t.snd_una then begin
    t.timeouts <- t.timeouts + 1;
    let flight = t.snd_nxt - t.snd_una in
    t.ssthresh <- Stdlib.max (flight / 2) (2 * t.config.mss);
    t.cwnd <- t.config.mss;
    t.dupacks <- 0;
    t.in_recovery <- false;
    t.rto_backoff <- Stdlib.min (t.rto_backoff + 1) 6;
    retransmit_first_unacked t;
    arm_rto t
  end

let send t len =
  if len < 0 then invalid_arg "Tcp_conn.send: negative length";
  t.app_limit <- t.app_limit + len;
  try_send t

(* ---------- RTT / RTO (RFC 6298) ---------- *)

let update_rtt t ~ack ~now =
  match t.rtt_probe with
  | Some (probe_end, sent_at) when ack >= probe_end ->
      t.rtt_probe <- None;
      let sample = Simtime.span_to_sec (Simtime.diff now sent_at) in
      (match t.srtt with
      | None ->
          t.srtt <- Some sample;
          t.rttvar <- sample /. 2.0
      | Some srtt ->
          let alpha = 0.125 and beta = 0.25 in
          t.rttvar <-
            ((1.0 -. beta) *. t.rttvar) +. (beta *. Float.abs (srtt -. sample));
          t.srtt <- Some (((1.0 -. alpha) *. srtt) +. (alpha *. sample)));
      let srtt = Option.get t.srtt in
      let rto = srtt +. Float.max (4.0 *. t.rttvar) 0.000_001 in
      let rto_span = Simtime.span_sec rto in
      t.rto <-
        (if Simtime.span_compare rto_span t.config.rto_min < 0 then
           t.config.rto_min
         else rto_span);
      t.rto_backoff <- 0
  | _ -> ()

(* ---------- sender ack processing ---------- *)

let deliver_to_sender t pkt =
  match pkt.Packet.l4 with
  | Packet.Plain | Packet.App _ -> ()
  | Packet.Tcp_seg { ack; _ } ->
      let now = Engine.now t.engine in
      if ack > t.snd_una then begin
        (* New data acknowledged. *)
        let newly_acked = ack - t.snd_una in
        update_rtt t ~ack ~now;
        (* Forward progress clears exponential backoff (RFC 6298 5.7):
           without this, one unlucky retransmission loss leaves the
           connection crawling at multi-second RTOs. *)
        t.rto_backoff <- 0;
        t.snd_una <- ack;
        t.trace <- (now, ack) :: t.trace;
        if t.in_recovery then begin
          if ack >= t.recover then begin
            (* Full ack: leave recovery, deflate to ssthresh. *)
            t.in_recovery <- false;
            t.dupacks <- 0;
            t.cwnd <- t.ssthresh
          end
          else begin
            (* NewReno partial ack: the next hole is lost too. *)
            t.fast_retransmits <- t.fast_retransmits + 1;
            retransmit_first_unacked t;
            t.cwnd <- Stdlib.max t.ssthresh (t.cwnd - newly_acked + t.config.mss)
          end
        end
        else begin
          t.dupacks <- 0;
          if t.cwnd < t.ssthresh then
            (* Slow start. *)
            t.cwnd <- t.cwnd + t.config.mss
          else
            (* Congestion avoidance: ~one MSS per RTT. *)
            t.cwnd <-
              t.cwnd + Stdlib.max 1 (t.config.mss * t.config.mss / t.cwnd)
        end;
        if t.snd_nxt > t.snd_una then arm_rto t else cancel_rto t;
        try_send t
      end
      else if t.snd_nxt > t.snd_una then begin
        (* Duplicate ack. *)
        t.dupacks_received <- t.dupacks_received + 1;
        t.dupacks <- t.dupacks + 1;
        if t.in_recovery then begin
          (* Inflate during recovery; each dupack signals a departure. *)
          t.cwnd <- t.cwnd + t.config.mss;
          try_send t
        end
        else if t.dupacks = 3 then begin
          t.fast_retransmits <- t.fast_retransmits + 1;
          t.recoveries <- t.recoveries + 1;
          let flight = t.snd_nxt - t.snd_una in
          t.ssthresh <- Stdlib.max (flight / 2) (2 * t.config.mss);
          t.cwnd <- t.ssthresh + (3 * t.config.mss);
          t.in_recovery <- true;
          t.recover <- t.snd_nxt;
          retransmit_first_unacked t;
          arm_rto t
        end
      end

(* ---------- receiver ---------- *)

let cancel_delack t =
  match t.delack_timer with
  | None -> ()
  | Some h ->
      ignore (Engine.cancel t.engine h);
      t.delack_timer <- None

let emit_ack t ~delayed =
  cancel_delack t;
  t.segs_since_ack <- 0;
  if delayed then t.delayed_acks_sent <- t.delayed_acks_sent + 1;
  let now = Engine.now t.engine in
  let flags = { Packet.syn = false; fin = false; is_ack = true } in
  let pkt =
    Packet.create ~now ~flow:(Fkey.reverse t.flow) ~payload:0
      ~l4:(Packet.Tcp_seg { seq = 0; ack = t.rcv_nxt; len = 0; flags })
      ~bulk:true ()
  in
  t.transmit_ack pkt

let arm_delack t =
  if t.delack_timer = None then begin
    let handle =
      Engine.after t.engine t.config.delayed_ack_timeout (fun () ->
          t.delack_timer <- None;
          emit_ack t ~delayed:true)
    in
    t.delack_timer <- Some handle
  end

(* Insert [start, stop) into the sorted disjoint interval list, merging
   overlaps. *)
let rec insert_interval (start, stop) = function
  | [] -> [ (start, stop) ]
  | (s, e) :: rest ->
      if stop < s then (start, stop) :: (s, e) :: rest
      else if e < start then (s, e) :: insert_interval (start, stop) rest
      else insert_interval (Stdlib.min s start, Stdlib.max e stop) rest

let advance_rcv_nxt t =
  let rec absorb () =
    match t.ooo with
    | (s, e) :: rest when s <= t.rcv_nxt ->
        if e > t.rcv_nxt then t.rcv_nxt <- e;
        t.ooo <- rest;
        absorb ()
    | _ -> ()
  in
  absorb ()

let deliver_to_receiver t pkt =
  match pkt.Packet.l4 with
  | Packet.Plain | Packet.App _ -> ()
  | Packet.Tcp_seg { seq; len; _ } ->
      let stop = seq + len in
      if stop <= t.rcv_nxt then
        (* Entirely old (spurious retransmission): ack immediately. *)
        emit_ack t ~delayed:false
      else if seq <= t.rcv_nxt then begin
        (* In-order (possibly overlapping) data. *)
        let had_holes = t.ooo <> [] in
        t.rcv_nxt <- stop;
        advance_rcv_nxt t;
        t.delivered_cb t.rcv_nxt;
        t.segs_since_ack <- t.segs_since_ack + 1;
        (* Ack immediately when this fills a hole (fast-recovery exit
           depends on it) or on every second segment; otherwise delay. *)
        if had_holes || t.segs_since_ack >= 2 then emit_ack t ~delayed:false
        else arm_delack t
      end
      else begin
        (* Out of order: buffer and send an immediate duplicate ack. *)
        t.ooo <- insert_interval (seq, stop) t.ooo;
        emit_ack t ~delayed:false
      end

(* ---------- introspection ---------- *)

let bytes_acked t = t.snd_una
let bytes_queued t = t.app_limit - t.snd_una
let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let in_flight t = t.snd_nxt - t.snd_una
let fast_retransmits t = t.fast_retransmits
let recoveries t = t.recoveries
let timeouts t = t.timeouts
let dupacks_received t = t.dupacks_received
let delayed_acks_sent t = t.delayed_acks_sent
let srtt t = Option.map Simtime.span_sec t.srtt
let sequence_trace t = List.rev t.trace
