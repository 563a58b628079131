module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey
module Cost = Compute.Cost_params

type server_port = { vswitch_q : Qos_queue.t; sriov_q : Qos_queue.t }

let m_forwarded = Obs.Metrics.counter "tor.forwarded"
let m_acl_drops = Obs.Metrics.counter "tor.acl_drops"
let m_no_route_drops = Obs.Metrics.counter "tor.no_route_drops"

(* Path-labeled breakdown of [tor.forwarded]: which lane a forwarded
   packet rode. Keys are the small fixed ranks below, rendered to
   stable label values. *)
let path_software = 0
let path_express = 1
let path_peer = 2

let fam_forwarded =
  Obs.Metrics.counter_family ~label:"path"
    ~render:(fun k ->
      if k = path_software then "software"
      else if k = path_express then "express"
      else "peer")
    "tor.forwarded"

let fam_acl_drops = Obs.Metrics.counter_family ~label:"tenant" "tor.acl_drops"

type t = {
  engine : Engine.t;
  tor_ip : Netcore.Ipv4.t;
  tcam : Tcam.t;
  mutable vrfs : (int * Vrf.t) list;  (* tenant id -> vrf *)
  vlan_to_tenant : (int, Netcore.Tenant.id) Hashtbl.t;
  servers : (int, server_port) Hashtbl.t;  (* server ip -> ports *)
  vm_location : (int, (int, int * [ `Vswitch | `Sriov ]) Hashtbl.t) Hashtbl.t;
      (* tenant -> vm ip -> (server ip, delivery port). Nested int
         tables rather than a tuple key: both ids are full 32-bit
         domains (no single-int packing) and building a tuple per
         forwarded packet was hot-path garbage. *)
  peers : (int, Packet.t -> unit) Hashtbl.t;
  (* Default route for software-path (VXLAN) packets whose outer server
     address is not on this rack: the uplink towards the core. [None]
     (single-rack topologies) keeps the historical drop behaviour. *)
  mutable uplink : (Packet.t -> unit) option;
  (* Lane-probe replies are handed here (remote ToR, probe seq). *)
  mutable probe_sink : (remote_tor:Netcore.Ipv4.t -> seq:int -> unit) option;
  (* Install-fault hook applied to every tenant VRF, present and
     future. [None] is the reliable path. *)
  mutable vrf_install_fault : (unit -> bool) option;
  offloaded_stats : Vswitch.Flow_stats.t;
  mutable acl_drops : int;
  mutable no_route_drops : int;
}

(* Reserved L4 ports for BFD-style express-lane liveness probes. Probe
   packets ride the same GRE express path as offloaded traffic (same
   peers table, same fabric links) so they share its fate. *)
let probe_port = 65001
let probe_reply_port = 65002

let create ~engine ~ip ~tcam_capacity =
  {
    engine;
    tor_ip = ip;
    tcam = Tcam.create ~capacity:tcam_capacity;
    vrfs = [];
    vlan_to_tenant = Hashtbl.create 16;
    servers = Hashtbl.create 16;
    vm_location = Hashtbl.create 64;
    peers = Hashtbl.create 4;
    uplink = None;
    probe_sink = None;
    vrf_install_fault = None;
    offloaded_stats = Vswitch.Flow_stats.create ();
    acl_drops = 0;
    no_route_drops = 0;
  }

let ip t = t.tor_ip
let tcam t = t.tcam

let ip_key addr = Int32.to_int (Netcore.Ipv4.to_int32 addr)

let vrf t tenant =
  let tid = Netcore.Tenant.to_int tenant in
  match List.assoc_opt tid t.vrfs with
  | Some v -> v
  | None ->
      let v = Vrf.create ~tenant ~tcam:t.tcam in
      Vrf.set_install_fault v t.vrf_install_fault;
      t.vrfs <- (tid, v) :: t.vrfs;
      Hashtbl.replace t.vlan_to_tenant (Netcore.Tenant.to_vlan tenant) tenant;
      v

let attach_server t ~server_ip ~to_vswitch ~to_sriov =
  let mk_port deliver name =
    let link =
      Fabric.Link.create ~engine:t.engine ~name ~gbps:Cost.link_gbps
        ~latency:Cost.tor_forward_latency ~deliver ()
    in
    Qos_queue.create ~engine:t.engine ~classes:8 ~link ~gbps:Cost.link_gbps
  in
  let key = ip_key server_ip in
  let port_name kind =
    Printf.sprintf "tor->%s.%s" (Netcore.Ipv4.to_string server_ip) kind
  in
  Hashtbl.replace t.servers key
    {
      vswitch_q = mk_port to_vswitch (port_name "vsw");
      sriov_q = mk_port to_sriov (port_name "vf");
    }

let register_vm t ~tenant ~vm_ip ~server_ip ?(port = `Vswitch) () =
  let tkey = Netcore.Tenant.to_int tenant in
  let inner =
    match Hashtbl.find_opt t.vm_location tkey with
    | Some inner -> inner
    | None ->
        let inner = Hashtbl.create 16 in
        Hashtbl.replace t.vm_location tkey inner;
        inner
  in
  Hashtbl.replace inner (ip_key vm_ip) (ip_key server_ip, port)

(* Allocation-free per-packet VM lookup: two [Hashtbl.find]s on int
   keys; raises [Not_found] when the VM is unknown. *)
let vm_lookup t ~tenant ~dst_ip =
  Hashtbl.find
    (Hashtbl.find t.vm_location (Netcore.Tenant.to_int tenant))
    (ip_key dst_ip)

let add_peer t peer_ip forward = Hashtbl.replace t.peers (ip_key peer_ip) forward
let set_uplink t forward = t.uplink <- Some forward
let set_probe_sink t sink = t.probe_sink <- Some sink

let iter_vrfs t f = List.iter (fun (_, v) -> f v) t.vrfs

let set_install_fault t hook =
  t.vrf_install_fault <- hook;
  iter_vrfs t (fun v -> Vrf.set_install_fault v hook)

let drop_no_route t =
  t.no_route_drops <- t.no_route_drops + 1;
  Obs.Metrics.incr m_no_route_drops

let note_forwarded path =
  Obs.Metrics.incr m_forwarded;
  Obs.Metrics.incr (Obs.Metrics.labeled_counter fam_forwarded path)

let drop_acl t tenant =
  t.acl_drops <- t.acl_drops + 1;
  Obs.Metrics.incr m_acl_drops;
  Obs.Metrics.incr
    (Obs.Metrics.labeled_counter fam_acl_drops (Netcore.Tenant.to_int tenant))

let to_server_vswitch t ~server_key ~queue pkt =
  match Hashtbl.find_opt t.servers server_key with
  | Some port ->
      note_forwarded path_software;
      Qos_queue.enqueue port.vswitch_q ~queue pkt
  | None -> drop_no_route t

let to_server_sriov t ~server_key ~queue pkt =
  match Hashtbl.find_opt t.servers server_key with
  | Some port ->
      note_forwarded path_express;
      Qos_queue.enqueue port.sriov_q ~queue pkt
  | None -> drop_no_route t

let wire_frames payload =
  Stdlib.max 1
    ((payload + Netcore.Hdr.max_tcp_payload - 1) / Netcore.Hdr.max_tcp_payload)

let forward_to_peer t ~tor_ip pkt =
  match Hashtbl.find_opt t.peers (ip_key tor_ip) with
  | Some forward ->
      note_forwarded path_peer;
      forward pkt
  | None -> drop_no_route t

let probe_tenant = Netcore.Tenant.of_int 0

let probe_packet t ~dst_tor_ip ~seq ~dst_port =
  let flow =
    Fkey.make ~src_ip:t.tor_ip ~dst_ip:dst_tor_ip ~src_port:(seq land 0xffff)
      ~dst_port ~proto:Fkey.Udp ~tenant:probe_tenant
  in
  let pkt =
    Packet.data_packet ~now:(Engine.now t.engine) ~flow ~payload:64
  in
  Packet.push_encap pkt
    (Packet.Gre { tunnel_dst = dst_tor_ip; key = probe_tenant });
  pkt

let send_lane_probe t ~dst_tor_ip ~seq =
  forward_to_peer t ~tor_ip:dst_tor_ip
    (probe_packet t ~dst_tor_ip ~seq ~dst_port:probe_port)

(* Hardware-path reception: GRE packet addressed to this ToR. *)
let handle_gre_rx t pkt ~key:tenant =
  let flow = pkt.Packet.flow in
  if flow.Fkey.dst_port = probe_port then
    (* Liveness probe request: echo a reply back over the reverse lane.
       Checked before any VRF work — probes belong to no tenant. *)
    forward_to_peer t ~tor_ip:flow.Fkey.src_ip
      (probe_packet t ~dst_tor_ip:flow.Fkey.src_ip ~seq:flow.Fkey.src_port
         ~dst_port:probe_reply_port)
  else if flow.Fkey.dst_port = probe_reply_port then (
    match t.probe_sink with
    | Some sink -> sink ~remote_tor:flow.Fkey.src_ip ~seq:flow.Fkey.src_port
    | None -> drop_no_route t)
  else begin
  let vrf_table = vrf t tenant in
  if not (Vrf.permits vrf_table flow) then drop_acl t tenant
  else begin
    let queue = Vrf.queue_for vrf_table flow in
    match vm_lookup t ~tenant ~dst_ip:flow.Fkey.dst_ip with
    | exception Not_found -> drop_no_route t
    | server_key, _ ->
        Packet.push_encap pkt (Packet.Vlan (Netcore.Tenant.to_vlan tenant));
        ignore
          (Engine.after t.engine Cost.tor_vrf_latency (fun () ->
               to_server_sriov t ~server_key ~queue pkt))
  end
  end

(* Hardware-path transmission: VLAN-tagged packet from an SR-IOV VF. *)
let handle_vlan_tx t pkt ~vlan =
  match Hashtbl.find_opt t.vlan_to_tenant vlan with
  | None -> drop_no_route t
  | Some tenant ->
      let vrf_table = vrf t tenant in
      let flow = pkt.Packet.flow in
      if not (Vrf.permits vrf_table flow) then
        (* Default deny: disallowed traffic injected via SR-IOV dies
           here (§4.1.3). *)
        drop_acl t tenant
      else begin
        Vswitch.Flow_stats.record t.offloaded_stats flow
          ~packets:(wire_frames pkt.Packet.payload)
          ~bytes:pkt.Packet.payload;
        match Vrf.tunnel_for vrf_table ~dst_ip:flow.Fkey.dst_ip with
        | None -> drop_no_route t
        | Some ep ->
            Packet.push_encap pkt
              (Packet.Gre { tunnel_dst = ep.Rules.Tunnel_rule.tor_ip; key = tenant });
            ignore
              (Engine.after t.engine Cost.tor_vrf_latency (fun () ->
                   if Netcore.Ipv4.equal ep.tor_ip t.tor_ip then begin
                     (* Intra-rack: we are also the destination ToR. *)
                     ignore (Packet.pop_encap pkt);
                     handle_gre_rx t pkt ~key:tenant
                   end
                   else begin
                     match Hashtbl.find_opt t.peers (ip_key ep.tor_ip) with
                     | Some forward ->
                         note_forwarded path_peer;
                         forward pkt
                     | None -> drop_no_route t
                   end))
      end

let receive t pkt =
  match Packet.outer_encap pkt with
  | Some (Packet.Vlan vlan) ->
      ignore (Packet.pop_encap pkt);
      handle_vlan_tx t pkt ~vlan
  | Some (Packet.Gre { tunnel_dst; key }) ->
      if Netcore.Ipv4.equal tunnel_dst t.tor_ip then begin
        ignore (Packet.pop_encap pkt);
        handle_gre_rx t pkt ~key
      end
      else begin
        match Hashtbl.find_opt t.peers (ip_key tunnel_dst) with
        | Some forward ->
            note_forwarded path_peer;
            forward pkt
        | None -> drop_no_route t
      end
  | Some (Packet.Vxlan { tunnel_dst; _ }) -> (
      (* Software path: route by the outer (server) address. A server
         not on this rack goes up towards the core (when an uplink is
         configured — single-rack topologies have none and drop). *)
      let server_key = ip_key tunnel_dst in
      match (Hashtbl.mem t.servers server_key, t.uplink) with
      | true, _ | false, None ->
          to_server_vswitch t ~server_key ~queue:0 pkt
      | false, Some up ->
          note_forwarded path_peer;
          up pkt)
  | None -> (
      (* Plain packet (untunneled software path): route by VM location. *)
      let flow = pkt.Packet.flow in
      match vm_lookup t ~tenant:flow.Fkey.tenant ~dst_ip:flow.Fkey.dst_ip with
      | server_key, `Vswitch -> to_server_vswitch t ~server_key ~queue:0 pkt
      | server_key, `Sriov ->
          (* Statically steered to the hardware path: tag with the
             tenant VLAN so the NIC can pick the VF. *)
          Packet.push_encap pkt
            (Packet.Vlan (Netcore.Tenant.to_vlan flow.Fkey.tenant));
          to_server_sriov t ~server_key ~queue:0 pkt
      | exception Not_found -> drop_no_route t)

let offloaded_flows t = Vswitch.Flow_stats.to_list t.offloaded_stats
let acl_drops t = t.acl_drops
let no_route_drops t = t.no_route_drops
