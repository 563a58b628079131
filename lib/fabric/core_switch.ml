module Packet = Netcore.Packet
module Ipv4 = Netcore.Ipv4
module Int_table = Netcore.Int_table

let m_routed = Obs.Metrics.counter "fabric.core.routed"
let m_drops = Obs.Metrics.counter "fabric.core.no_route_drops"

(* Per-rack breakdown of [fabric.core.routed], keyed on the rack index
   assigned when the rack's downlink was attached. *)
let fam_routed = Obs.Metrics.counter_family ~label:"rack" "fabric.core.routed"

type port = {
  downlink : Packet.t Channel.t;
  rack : int;  (* attach order; the [fam_routed] label key *)
}

type t = {
  engine : Dcsim.Engine.t;
  downlinks : port Int_table.t; (* tor ip -> downlink port *)
  server_rack : int Int_table.t; (* server ip -> tor ip *)
  mutable routed : int;
  mutable dropped : int;
}

let create ~engine =
  {
    engine;
    downlinks = Int_table.create 16;
    server_rack = Int_table.create 64;
    routed = 0;
    dropped = 0;
  }

let ip_key (addr : Ipv4.t) = (addr :> int)

let attach_rack t ~tor_ip ~downlink =
  let rack = Int_table.length t.downlinks in
  Int_table.replace t.downlinks (ip_key tor_ip) { downlink; rack }

let register_server t ~server_ip ~tor_ip =
  Int_table.replace t.server_rack (ip_key server_ip) (ip_key tor_ip)

let drop t =
  t.dropped <- t.dropped + 1;
  Obs.Metrics.incr m_drops

let forward t key pkt =
  match Int_table.find t.downlinks key with
  | port ->
      t.routed <- t.routed + 1;
      Obs.Metrics.incr m_routed;
      Obs.Metrics.incr (Obs.Metrics.labeled_counter fam_routed port.rack);
      Channel.send port.downlink pkt
  | exception Not_found -> drop t

let receive t pkt =
  match Packet.outer_encap pkt with
  | Some (Packet.Gre { tunnel_dst; _ }) ->
      (* Express-lane traffic: routed by the destination ToR loopback
         in the outer GRE header. *)
      forward t (ip_key tunnel_dst) pkt
  | Some (Packet.Vxlan { tunnel_dst; _ }) -> (
      (* Software-path traffic between racks: the outer address is the
         destination server; route to its rack's ToR. *)
      match Int_table.find t.server_rack (ip_key tunnel_dst) with
      | tor_key -> forward t tor_key pkt
      | exception Not_found -> drop t)
  | Some (Packet.Vlan _) | None ->
      (* VLAN-tagged and plain packets are rack-local by construction;
         one reaching the core has no routable outer address. *)
      drop t

let engine t = t.engine
let packets_routed t = t.routed
let packets_dropped t = t.dropped
