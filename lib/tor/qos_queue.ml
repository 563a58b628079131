module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fifo = Dcsim.Fifo

type t = {
  engine : Engine.t;
  waiting : Packet.t Fifo.t;
  link : Fabric.Link.t;
  mutable busy : bool;
  mutable sent : int;
  repump : unit -> unit;  (* [pump] of this queue, made once *)
}

let m_enqueued = Obs.Metrics.counter "tor.qos.enqueued"
let m_sent = Obs.Metrics.counter "tor.qos.sent"
let m_depth = Obs.Metrics.summary "tor.qos.depth"

(* Hand the oldest packet to the link and wake again when the link has
   serialised it, so the link never holds a second packet. *)
let pump t =
  if Fifo.is_empty t.waiting then t.busy <- false
  else begin
    let pkt = Fifo.pop t.waiting in
    t.sent <- t.sent + 1;
    Obs.Metrics.incr m_sent;
    let serialisation = Fabric.Link.transmit t.link pkt in
    ignore (Engine.after t.engine serialisation t.repump)
  end

let create ~engine ~link =
  let rec t =
    {
      engine;
      waiting = Fifo.create ();
      link;
      busy = false;
      sent = 0;
      repump = (fun () -> pump t);
    }
  in
  t

let enqueue t pkt =
  Fifo.push t.waiting pkt;
  Obs.Metrics.incr m_enqueued;
  Obs.Metrics.observe m_depth (float_of_int (Fifo.length t.waiting));
  if not t.busy then begin
    t.busy <- true;
    pump t
  end

let packets_sent t = t.sent
