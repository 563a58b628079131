module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Cluster = Dcsim.Cluster
module Channel = Fabric.Channel
module Core_switch = Fabric.Core_switch

type t = {
  cluster : Cluster.t;
  core : Core_switch.t;
  engines : Engine.t array;
  prefix : string;
}

(* Rack <-> core propagation delay: the cluster lookahead, i.e. the
   lockstep window length. The control-plane channels ride a slower
   management network and never lower this bound. *)
let fabric_hop = Simtime.span_us 2.0

let create ?(sharded = true) ~seed ~racks ~prefix () =
  let engines, shards =
    if sharded && racks > 1 then
      let engines =
        Array.init racks (fun r -> Engine.create ~seed:(seed + r) ())
      in
      let core = Engine.create ~seed:(seed + racks + 1) () in
      (engines, Array.append engines [| core |])
    else
      let e = Engine.create ~seed () in
      (Array.make racks e, [| e |])
  in
  let cluster = Cluster.create ~shards in
  let core = Core_switch.create ~engine:shards.(Array.length shards - 1) () in
  { cluster; core; engines; prefix }

let name t r suffix = Printf.sprintf "%s%d.%s" t.prefix r suffix

let testbed t ?config r ~servers =
  Testbed.create ~engine:t.engines.(r) ?config ~server_count:servers ~rack:r
    ~name_prefix:(name t r "") ()

let uplink t ?faults ?copy r suffix =
  Channel.create ~cluster:t.cluster ?faults ?copy ~name:(name t r suffix)
    ~src:t.engines.(r) ~dst:(Core_switch.engine t.core) ~latency:fabric_hop
    ~handler:(fun pkt -> Core_switch.receive t.core pkt)
    ()

let attach t r (tb : Testbed.t) =
  let tor_ip = Tor.Tor_switch.ip tb.tor in
  let downlink =
    Channel.create ~cluster:t.cluster ~name:(name t r "down")
      ~src:(Core_switch.engine t.core) ~dst:t.engines.(r) ~latency:fabric_hop
      ~handler:(fun pkt -> Tor.Tor_switch.receive tb.tor pkt)
      ()
  in
  Core_switch.attach_rack t.core ~tor_ip ~downlink ();
  Array.iter
    (fun s ->
      Core_switch.register_server t.core ~server_ip:(Host.Server.ip s) ~tor_ip)
    tb.servers

let connect_peers t racks =
  Obs.Trace.set_clock (fun () -> Cluster.now t.cluster);
  Array.iter
    (fun ((tb : Testbed.t), up) ->
      Array.iter
        (fun ((tb' : Testbed.t), _) ->
          if tb != tb' then
            Tor.Tor_switch.add_peer tb.tor (Tor.Tor_switch.ip tb'.tor)
              (fun pkt -> Channel.send up pkt))
        racks)
    racks
