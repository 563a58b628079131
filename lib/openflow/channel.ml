module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime

let m_drops = Obs.Metrics.counter "openflow.channel.drops"
let m_dups = Obs.Metrics.counter "openflow.channel.dups"
let m_reorders = Obs.Metrics.counter "openflow.channel.reorders"

type 'msg t = {
  engine : Engine.t;
  latency : Simtime.span;
  handler : 'msg -> unit;
  name : string;
  faults : Faults.Injector.t option;
  mutable sent : int;
  (* In-order delivery: if two sends race, the second is scheduled no
     earlier than the first's delivery instant. *)
  mutable last_delivery : Simtime.t;
}

let create ?(name = "chan") ?faults ~engine ~latency ~handler () =
  { engine; latency; handler; name; faults; sent = 0; last_delivery = Simtime.zero }

(* The reliable path: deliver after [latency], clamped behind the last
   scheduled delivery so the channel is FIFO. This is the only path a
   fault-free channel ever takes, so its event schedule is identical to
   a build without the fault machinery. *)
let deliver_in_order t msg ~earliest =
  let at =
    if Simtime.(earliest < t.last_delivery) then t.last_delivery else earliest
  in
  t.last_delivery <- at;
  ignore (Engine.at t.engine at (fun () -> t.handler msg))

(* A reordered (or duplicated) copy skips the FIFO clamp and does not
   advance the watermark, so it may overtake earlier sends without
   delaying anything behind it. *)
let deliver_loose t msg ~at = ignore (Engine.at t.engine at (fun () -> t.handler msg))

let send t msg =
  t.sent <- t.sent + 1;
  let now = Engine.now t.engine in
  let earliest = Simtime.add now t.latency in
  match t.faults with
  | None -> deliver_in_order t msg ~earliest
  | Some inj -> (
      match Faults.Injector.decide inj ~now with
      | Faults.Injector.Drop ->
          Obs.Metrics.incr m_drops;
          if Obs.Trace.enabled () then
            Obs.Trace.emit ~now (Obs.Trace.Ctrl_drop { channel = t.name })
      | Faults.Injector.Deliver { extra_delay; in_order; duplicate_delay } ->
          let at = Simtime.add earliest extra_delay in
          (match duplicate_delay with
          | None -> ()
          | Some d ->
              Obs.Metrics.incr m_dups;
              deliver_loose t msg ~at:(Simtime.add earliest d));
          if in_order then deliver_in_order t msg ~earliest:at
          else begin
            Obs.Metrics.incr m_reorders;
            deliver_loose t msg ~at
          end)

let messages_sent t = t.sent
