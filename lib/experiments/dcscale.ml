module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Cluster = Dcsim.Cluster
module Channel = Fabric.Channel
module Core_switch = Fabric.Core_switch
module Fkey = Netcore.Fkey
module Stream = Workloads.Stream

type config = {
  racks : int;
  duration : float;
  sharded : bool;
  express_messages : int;
  soft_messages : int;
  message_size : int;
}

let default_config =
  {
    racks = 16;
    duration = 0.5;
    sharded = true;
    express_messages = 256;
    soft_messages = 64;
    message_size = 4096;
  }

let servers_per_rack = 2
let seed = 42

(* Migration control messages ride a slower management network than
   the 2 us fabric hop, so they never lower the cluster lookahead. *)
let control_hop = Simtime.span_us 20.0
let express_port = 7000
let soft_port = 7100

type rack = {
  tb : Testbed.t;
  rack_engine : Engine.t;
  rm : Fastrak.Rule_manager.t;
  xs : Host.Server.attached;  (* express-lane sender VM *)
  xr : Host.Server.attached;  (* express-lane receiver VM *)
  sw : Host.Server.attached;  (* software-path sender VM *)
  uplink : Netcore.Packet.t Channel.t;
}

type result = {
  cfg : config;
  shard_count : int;
  windows : int;
  lookahead_us : float;
  events : int;
  express_bytes : int;
  soft_bytes : int;
  core_routed : int;
  core_dropped : int;
  tor_no_route_drops : int;
  acl_drops : int;
  migration_outcome : string;
  cpu_s : float;
  events_per_sec : float;
}

(* The selection a's traffic for b rides the lane under. *)
let lane_selection (a : Host.Server.attached) (b : Host.Server.attached) =
  {
    (Fkey.Pattern.from_vm (Host.Vm.ip a.vm) (Host.Vm.tenant a.vm)) with
    Fkey.Pattern.dst_ip = Some (Host.Vm.ip b.vm);
  }

let pin_receive ~dst_tb (a : Host.Server.attached) (b : Host.Server.attached) =
  let tenant = Host.Vm.tenant a.vm in
  let ip_b = Host.Vm.ip b.vm in
  let dst_server =
    match Testbed.server_of_vm dst_tb ip_b with
    | Some s -> s
    | None -> invalid_arg "Dcscale.pin_receive: destination VM not placed"
  in
  Rules.Policy.install_tunnel
    (Vswitch.Ovs.vif_policy a.vif)
    (Rules.Tunnel_rule.make ~tenant ~vm_ip:ip_b
       {
         Rules.Tunnel_rule.server_ip = Host.Server.ip dst_server;
         tor_ip = Tor.Tor_switch.ip dst_tb.Testbed.tor;
       });
  let pin =
    Testbed.pin dst_tb.Testbed.tor a ~selection:(lane_selection a b)
      ~destinations:[ ip_b ]
  in
  Tor.Tor_switch.register_vm dst_tb.Testbed.tor ~tenant ~vm_ip:ip_b
    ~server_ip:(Host.Server.ip dst_server) ~port:`Sriov ();
  pin

let pin_direction ~src_tb ~dst_tb (a : Host.Server.attached)
    (b : Host.Server.attached) =
  ignore (pin_receive ~dst_tb a b);
  let selection = lane_selection a b in
  if src_tb.Testbed.tor != dst_tb.Testbed.tor then
    ignore
      (Testbed.pin src_tb.Testbed.tor a ~selection
         ~destinations:[ Host.Vm.ip b.vm ]);
  ignore
    (Host.Bonding.install_rule a.bonding ~pattern:selection ~priority:2
       Host.Bonding.Vf)

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.racks < 1 || cfg.racks > 84 then
    invalid_arg "Dcscale.run: racks must be in 1..84";
  let mr =
    Multirack.create ~sharded:cfg.sharded ~seed ~racks:cfg.racks
      ~prefix:"r" ()
  in
  let cluster = mr.Multirack.cluster in
  let rm_config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period = Simtime.span_sec 0.1;
      poll_gap = Simtime.span_sec 0.02;
    }
  in
  let racks =
    Array.init cfg.racks (fun r ->
        let rack_engine = mr.Multirack.engines.(r) in
        let tb = Multirack.testbed mr r ~servers:servers_per_rack in
        let vm k kind =
          Testbed.vm_spec
            ~server:(k mod servers_per_rack)
            ~name:(Printf.sprintf "r%d.%s" r kind)
            ~ip_last_octet:((r * 3) + k + 1)
            ()
        in
        let xs = Testbed.add_vm tb (vm 0 "xs") in
        let xr = Testbed.add_vm tb (vm 1 "xr") in
        let sw = Testbed.add_vm tb (vm 2 "sw") in
        Testbed.connect_tunnels tb;
        let uplink = Multirack.uplink mr r "up" in
        Multirack.attach mr r tb;
        let rm =
          Fastrak.Rule_manager.create ~engine:rack_engine ~config:rm_config
            ~tor:tb.Testbed.tor
            ~servers:(Array.to_list tb.Testbed.servers)
            ()
        in
        { tb; rack_engine; rm; xs; xr; sw; uplink })
  in
  Multirack.connect_peers (Array.map (fun rk -> (rk.tb, rk.uplink)) racks);
  Array.iter (fun rk -> Fastrak.Rule_manager.start rk.rm) racks;
  (* Express lanes: rack r's sender streams to rack (r+1)'s receiver
     over the pinned hardware path, acks riding the reverse lane. *)
  let express =
    Array.init cfg.racks (fun r ->
        let src = racks.(r) and dst = racks.((r + 1) mod cfg.racks) in
        let a = src.xs and b = dst.xr in
        pin_direction ~src_tb:src.tb ~dst_tb:dst.tb a b;
        pin_direction ~src_tb:dst.tb ~dst_tb:src.tb b a;
        Stream.install_sink ~vm:b.Host.Server.vm ~port:express_port ();
        let sc =
          {
            (Stream.default_config ~dst_ip:(Host.Vm.ip b.Host.Server.vm)) with
            Stream.dst_port = express_port;
            src_port = 6000 + r;
            message_size = cfg.message_size;
            total_bytes = Some (cfg.express_messages * cfg.message_size);
          }
        in
        Stream.start ~engine:src.rack_engine ~vm:a.Host.Server.vm sc)
  in
  (* Rack-local software-path traffic keeps each shard's vswitches and
     local controllers busy (and gives the migrating VM a demand
     profile worth shipping). *)
  let soft =
    Array.map
      (fun rk ->
        Stream.install_sink ~vm:rk.xr.Host.Server.vm ~port:soft_port ();
        let sc =
          {
            (Stream.default_config ~dst_ip:(Host.Vm.ip rk.xr.Host.Server.vm)) with
            Stream.dst_port = soft_port;
            src_port = 6500;
            message_size = cfg.message_size;
            total_bytes = Some (cfg.soft_messages * cfg.message_size);
          }
        in
        Stream.start ~engine:rk.rack_engine ~vm:rk.sw.Host.Server.vm sc)
      racks
  in
  (* Inter-rack VM migration through the two-phase protocol: prepare at
     rack 0, ship the detached demand profile to rack 1 over a control
     channel, adopt it there, and commit at the source when the ack
     comes back. The prepare timeout still guards a lost ack. *)
  let mg_ref = ref None in
  if cfg.racks > 1 then begin
    let src = racks.(0) and dst = racks.(1) in
    let mig_vm_ip = Host.Vm.ip src.sw.Host.Server.vm in
    let tenant = Host.Vm.tenant src.sw.Host.Server.vm in
    let dst_server = Host.Server.name dst.tb.Testbed.servers.(0) in
    let ack =
      Channel.create ~cluster ~name:"mig.ack" ~src:dst.rack_engine
        ~dst:src.rack_engine ~latency:control_hop
        ~handler:(fun () ->
          match !mg_ref with
          | Some mg ->
              ignore (Fastrak.Rule_manager.commit_vm_migration_remote src.rm mg)
          | None -> ())
        ()
    in
    let profile_chan =
      Channel.create ~cluster ~name:"mig.profile" ~src:src.rack_engine
        ~dst:dst.rack_engine ~latency:control_hop
        ~handler:(fun (vm_ip, profile) ->
          (match profile with
          | Some p ->
              Fastrak.Rule_manager.adopt_vm_profile dst.rm ~server:dst_server
                ~vm_ip ~profile:p
          | None -> ());
          Channel.send ack ())
        ()
    in
    ignore
      (Engine.at src.rack_engine
         (Simtime.of_sec (cfg.duration /. 2.0))
         (fun () ->
           let mg =
             Fastrak.Rule_manager.begin_vm_migration src.rm ~tenant
               ~vm_ip:mig_vm_ip
           in
           mg_ref := Some mg;
           Channel.send profile_chan
             (mig_vm_ip, Fastrak.Rule_manager.migration_profile mg)))
  end;
  let t0 = Sys.time () in
  Cluster.run ~until:(Simtime.of_sec cfg.duration) cluster;
  let cpu_s = Sys.time () -. t0 in
  let events = Cluster.events_processed cluster in
  let sum f = Array.fold_left (fun acc rk -> acc + f rk) 0 racks in
  {
    cfg;
    shard_count = Cluster.shard_count cluster;
    windows = Cluster.windows_run cluster;
    lookahead_us =
      (match Cluster.lookahead cluster with
      | Some l -> Simtime.span_to_us l
      | None -> 0.0);
    events;
    express_bytes =
      Array.fold_left (fun acc s -> acc + Stream.bytes_acked s) 0 express;
    soft_bytes = Array.fold_left (fun acc s -> acc + Stream.bytes_acked s) 0 soft;
    core_routed = Core_switch.packets_routed mr.Multirack.core;
    core_dropped = Core_switch.packets_dropped mr.Multirack.core;
    tor_no_route_drops = sum (fun rk -> Tor.Tor_switch.no_route_drops rk.tb.Testbed.tor);
    acl_drops = sum (fun rk -> Tor.Tor_switch.acl_drops rk.tb.Testbed.tor);
    migration_outcome =
      (if cfg.racks = 1 then "skipped"
       else
         match !mg_ref with
         | None -> "not-started"
         | Some mg -> (
             match Fastrak.Rule_manager.migration_state mg with
             | `Preparing -> "preparing"
             | `Committed -> "committed"
             | `Aborted -> "aborted"));
    cpu_s;
    events_per_sec =
      (if cpu_s > 0.0 then float_of_int events /. cpu_s else 0.0);
  }

let print_row r =
  let layout = if r.cfg.sharded then "sharded" else "single-engine" in
  Printf.printf "  %-13s racks=%-3d shards=%-3d windows=%-8d events=%d\n"
    layout r.cfg.racks r.shard_count r.windows r.events;
  (* Wall-clock throughput differs run to run, so it goes to stderr and
     stdout stays deterministic (the engine smoke run's golden file). *)
  flush stdout;
  Printf.eprintf "  %s: %.2e ev/s\n%!" layout r.events_per_sec;
  Printf.printf
    "    express acked: %d B; soft acked: %d B; core routed/dropped: %d/%d; \
     tor no-route: %d; acl drops: %d; migration: %s\n"
    r.express_bytes r.soft_bytes r.core_routed r.core_dropped
    r.tor_no_route_drops r.acl_drops r.migration_outcome

let print_comparison ~sharded ~single =
  Tabular.print_title "dcscale: sharded vs single-engine";
  print_row sharded;
  print_row single;
  if
    sharded.express_bytes = single.express_bytes
    && sharded.soft_bytes = single.soft_bytes
  then print_endline "  delivered bytes identical across engine layouts"
  else
    Printf.printf
      "  WARNING: delivered bytes diverge (express %d vs %d, soft %d vs %d)\n"
      sharded.express_bytes single.express_bytes sharded.soft_bytes
      single.soft_bytes
