module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fifo = Dcsim.Fifo

type t = {
  engine : Engine.t;
  queues : Packet.t Fifo.t array;
  link : Fabric.Link.t;
  mutable busy : bool;
  mutable queued : int;  (* packets waiting, all classes *)
  mutable sent : int;
  repump : unit -> unit;  (* [pump] of this queue, made once *)
}

let m_enqueued = Obs.Metrics.counter "tor.qos.enqueued"
let m_sent = Obs.Metrics.counter "tor.qos.sent"
let m_depth = Obs.Metrics.summary "tor.qos.depth"

(* The highest non-empty class at or below [i], or -1. *)
let rec highest_nonempty queues i =
  if i < 0 || not (Fifo.is_empty queues.(i)) then i
  else highest_nonempty queues (i - 1)

(* Hand the best packet to the link and wake again when the link has
   serialised it, so the link never holds a second packet. *)
let pump t =
  let i = highest_nonempty t.queues (Array.length t.queues - 1) in
  if i < 0 then t.busy <- false
  else begin
    let pkt = Fifo.pop t.queues.(i) in
    t.queued <- t.queued - 1;
    t.sent <- t.sent + 1;
    Obs.Metrics.incr m_sent;
    let serialisation = Fabric.Link.transmit t.link pkt in
    ignore (Engine.after t.engine serialisation t.repump)
  end

let create ~engine ~classes ~link =
  if classes <= 0 then invalid_arg "Qos_queue.create: classes must be positive";
  let queues = Array.init classes (fun _ -> Fifo.create ()) in
  let rec t =
    {
      engine;
      queues;
      link;
      busy = false;
      queued = 0;
      sent = 0;
      repump = (fun () -> pump t);
    }
  in
  t

let enqueue t ~queue pkt =
  let queue = Stdlib.max 0 (Stdlib.min queue (Array.length t.queues - 1)) in
  Fifo.push t.queues.(queue) pkt;
  t.queued <- t.queued + 1;
  Obs.Metrics.incr m_enqueued;
  Obs.Metrics.observe m_depth (float_of_int t.queued);
  if not t.busy then begin
    t.busy <- true;
    pump t
  end

let packets_sent t = t.sent
