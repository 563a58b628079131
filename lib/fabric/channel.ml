module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Cluster = Dcsim.Cluster

let m_drops = Obs.Metrics.counter "fabric.channel.drops"
let m_dups = Obs.Metrics.counter "fabric.channel.dups"
let m_reorders = Obs.Metrics.counter "fabric.channel.reorders"

type 'msg t = {
  chan_name : string;
  src : Engine.t;
  dst : Engine.t;
  latency : Simtime.span;
  handler : 'msg -> unit;
  faults : Faults.Injector.t option;
  (* Copier applied to duplicated deliveries. Messages with mutable
     state (packets and their encap stacks) must not alias their
     duplicate, or the first delivery's decap corrupts the second. *)
  copy : 'msg -> 'msg;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  (* FIFO: a send never overtakes an earlier one, so a later send is
     scheduled no earlier than the previous delivery instant. *)
  mutable last_delivery : Simtime.t;
}

let create ?cluster ?faults ?(copy = fun msg -> msg) ?(name = "fabric.chan")
    ~src ~dst ~latency ~handler () =
  if src != dst && Simtime.span_to_ns latency <= 0 then
    invalid_arg
      (Printf.sprintf
         "Fabric.Channel.create %s: cross-shard latency must be positive" name);
  if Simtime.span_to_ns latency < 0 then
    invalid_arg
      (Printf.sprintf "Fabric.Channel.create %s: negative latency" name);
  (match cluster with
  | Some c when src != dst -> Cluster.constrain_lookahead c latency
  | _ -> ());
  {
    chan_name = name;
    src;
    dst;
    latency;
    handler;
    faults;
    copy;
    sent = 0;
    delivered = 0;
    dropped = 0;
    last_delivery = Simtime.zero;
  }

let check_lookahead t at =
  if Simtime.(at < Engine.now t.dst) then
    invalid_arg
      (Format.asprintf
         "Fabric.Channel.send %s: lookahead violation — delivery at %a is in \
          the destination shard's past (%a); the channel's latency must be >= \
          the cluster lookahead (register it with ~cluster)"
         t.chan_name Simtime.pp at Simtime.pp (Engine.now t.dst))

let schedule_delivery t at msg =
  check_lookahead t at;
  ignore
    (Engine.at t.dst at (fun () ->
         t.delivered <- t.delivered + 1;
         t.handler msg))

(* In-order delivery: clamp to the previous delivery instant and
   advance the FIFO cursor. *)
let deliver_in_order t ~earliest msg =
  let at =
    if Simtime.(earliest < t.last_delivery) then t.last_delivery else earliest
  in
  t.last_delivery <- at;
  schedule_delivery t at msg

(* Loose delivery: no FIFO clamp, cursor untouched — the message may
   overtake (or trail) its neighbours. Used for reorder/dup verdicts. *)
let deliver_loose t ~at msg = schedule_delivery t at msg

let send t msg =
  let now = Engine.now t.src in
  t.sent <- t.sent + 1;
  let earliest = Simtime.add now t.latency in
  match t.faults with
  | None -> deliver_in_order t ~earliest msg
  | Some inj -> (
      match Faults.Injector.decide inj ~now with
      | Faults.Injector.Drop ->
          (* The message never arrives; it does not advance the FIFO
             cursor either. *)
          t.dropped <- t.dropped + 1;
          Obs.Metrics.incr m_drops;
          if Obs.Trace.enabled () then
            Obs.Trace.emit ~now (Obs.Trace.Ctrl_drop { channel = t.chan_name })
      | Faults.Injector.Deliver { extra_delay; in_order; duplicate_delay } ->
          (* Fault delays only ever ADD to the channel latency, so the
             delivery instant stays >= the registered lookahead bound. *)
          let earliest = Simtime.add earliest extra_delay in
          (if in_order then deliver_in_order t ~earliest msg
           else begin
             Obs.Metrics.incr m_reorders;
             deliver_loose t ~at:earliest msg
           end);
          (match duplicate_delay with
          | None -> ()
          | Some d ->
              Obs.Metrics.incr m_dups;
              deliver_loose t ~at:(Simtime.add earliest d) (t.copy msg)))

let messages_sent t = t.sent
let messages_delivered t = t.delivered
let in_flight t = t.sent - t.delivered - t.dropped
