module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Cluster = Dcsim.Cluster
module Channel = Fabric.Channel
module Core_switch = Fabric.Core_switch
module Stream = Workloads.Stream

type config = {
  racks : int;
  duration : float;
  drain : float;
  crash_at : float;
  restart_at : float;
  seed : int;
}

let default_config =
  {
    racks = 4;
    duration = 3.0;
    drain = 1.0;
    crash_at = 2.0;
    restart_at = 2.3;
    seed = 42;
  }

let servers_per_rack = 2
let rate_bps = 40e6
let message_size = 4096

let express_port = 7200

type rack = {
  tb : Testbed.t;
  rack_engine : Engine.t;
  mutable rm : Fastrak.Rule_manager.t option;
  xs : Host.Server.attached;  (* sender VM: streams to the next rack *)
  xr : Host.Server.attached;  (* receiver VM: sink for the previous rack *)
  express_up : Netcore.Packet.t Channel.t;  (* GRE/peer uplink, fault-injected *)
  soft_up : Netcore.Packet.t Channel.t;  (* VXLAN default uplink, reliable *)
  statics : static_pin list ref;
      (* receive-side VRF permits this experiment provisioned *)
}

(* A statically provisioned receive-side VRF permit (the destination
   ToR's half of an express lane, [Dcscale.pin_receive]). It is not
   TOR-controller intent, so the anti-entropy audit never touches it;
   the experiment plays the provisioning system instead and re-installs
   it if a TCAM soft error evicts it. *)
and static_pin = {
  sp_vrf : Tor.Vrf.t;
  sp_compiled : Rules.Rule_compiler.compiled;
  mutable sp_handle : Tor.Vrf.handle;
}

type result = {
  cfg : config;
  schedule : string;
  express_sent : int;
  express_acked : int;
  lane_downs : int;
  lane_ups : int;
  failover_demotions : int;
  repromotions : int;
  recovery_count : int;
  recovery_mean_s : float;
  resyncs : int;
  audit_sweeps : int;
  audit_reinstalls : int;
  audit_orphans : int;
  static_reinstalls : int;
  install_faults : int;
  soft_errors : int;
  fabric_drops : int;
  core_routed : int;
  core_dropped : int;
  acl_drops : int;
  no_route_drops : int;
  lanes_up_at_end : int;
  lanes_total : int;
  offloaded_at_end : int;
  crash_outcome : string;
  (* The flight recorder's ring at the crash instant, when a recorder
     was installed and the scripted crash fired, and the file the crash
     hook dumped it to. *)
  crash_flight : (Simtime.t * Obs.Trace.event) list option;
  crash_dump : string option;
  reconciled : bool;
}

let summary_delta before name =
  let read = function
    | Some (Obs.Metrics.Summary_v { count; sum; _ }) -> (count, sum)
    | _ -> (0, 0.0)
  in
  let c0, s0 = read (List.assoc_opt name before) in
  let c1, s1 = read (Obs.Metrics.find name) in
  let dc = c1 - c0 in
  (dc, if dc > 0 then (s1 -. s0) /. float_of_int dc else 0.0)

let run ?(schedule = "fabric") ?(config = default_config) () =
  let cfg = config in
  if cfg.racks < 2 || cfg.racks > 84 then
    invalid_arg "Fabric_chaos.run: racks must be in 2..84";
  let sched =
    match Faults.Schedule.profile schedule with
    | Ok s -> s
    | Error msg -> invalid_arg ("fabric-chaos: bad fault schedule: " ^ msg)
  in
  (* The schedule's channel dimensions hit the express uplinks only;
     its TCAM dimensions go to each rack's rule manager. The control
     channels and the VXLAN fallback uplink stay reliable — the
     failure domain under test is the data-plane express path. *)
  let tcam_sched =
    {
      Faults.Schedule.none with
      Faults.Schedule.tcam_install_fail = sched.Faults.Schedule.tcam_install_fail;
      tcam_soft_error = sched.Faults.Schedule.tcam_soft_error;
    }
  in
  let before = Obs.Metrics.snapshot () in
  let mr = Multirack.create ~seed:cfg.seed ~racks:cfg.racks ~prefix:"fc" () in
  let cluster = mr.Multirack.cluster in
  let rm_config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period = Simtime.span_ms 100.0;
      poll_gap = Simtime.span_ms 20.0;
      tcam_audit_interval = Some (Simtime.span_ms 250.0);
    }
  in
  let racks =
    Array.init cfg.racks (fun r ->
        let rack_engine = mr.Multirack.engines.(r) in
        (* Tunneling on: the software path must VXLAN-encapsulate so
           demoted cross-rack flows can route over the core by outer
           server address — it is the failover path under test. *)
        let tb =
          Multirack.testbed mr ~config:Compute.Cost_params.with_tunneling r
            ~servers:servers_per_rack
        in
        let vm k kind =
          Testbed.vm_spec
            ~server:(k mod servers_per_rack)
            ~name:(Printf.sprintf "fc%d.%s" r kind)
            ~ip_last_octet:(100 + (r * 2) + k)
            ()
        in
        let xs = Testbed.add_vm tb (vm 0 "xs") in
        let xr = Testbed.add_vm tb (vm 1 "xr") in
        Testbed.connect_tunnels tb;
        (* Express uplink: GRE towards peer ToRs, with the schedule's
           drop/dup/reorder/jitter/down-window faults. *)
        let express_up =
          Multirack.uplink mr ~copy:Netcore.Packet.copy
            ?faults:
              (if Faults.Schedule.has_channel_faults sched then
                 Some
                   (Faults.Injector.create ~schedule:sched
                      ~rng:
                        (Dcsim.Rng.split (Engine.rng rack_engine)
                           (Printf.sprintf "faults.fabric.r%d" r)))
               else None)
            r "express"
        in
        (* Reliable uplink: the VXLAN software-path fallback. A lane
           outage must leave demoted flows a working route. *)
        let soft_up = Multirack.uplink mr r "soft" in
        Multirack.attach mr r tb;
        Tor.Tor_switch.set_uplink tb.Testbed.tor (fun pkt ->
            Channel.send soft_up pkt);
        { tb; rack_engine; rm = None; xs; xr; express_up; soft_up; statics = ref [] })
  in
  Multirack.connect_peers (Array.map (fun rk -> (rk.tb, rk.express_up)) racks);
  (* Receive-side provisioning for both directions of each lane (data
     r -> r+1, acks r+1 -> r), before any install-fault hook arms. The
     transmit side is deliberately NOT pinned: promoting the sender's
     flows onto the lane (and demoting them off a dead one) is the TOR
     controller's job. *)
  let pin_receive dst a b =
    let sp_vrf, sp_compiled, sp_handle = Dcscale.pin_receive ~dst_tb:dst.tb a b in
    dst.statics := { sp_vrf; sp_compiled; sp_handle } :: !(dst.statics)
  in
  Array.iteri
    (fun r src ->
      let dst = racks.((r + 1) mod cfg.racks) in
      pin_receive dst src.xs dst.xr;
      pin_receive src dst.xr src.xs)
    racks;
  (* Control plane per rack; the TCAM failure modes arm here. *)
  Array.iter
    (fun rk ->
      rk.rm <-
        Some
          (Fastrak.Rule_manager.create ~engine:rk.rack_engine ~config:rm_config
             ~tor:rk.tb.Testbed.tor
             ~servers:(Array.to_list rk.tb.Testbed.servers)
             ?faults:
               (if Faults.Schedule.has_tcam_faults tcam_sched then
                  Some tcam_sched
                else None)
             ()))
    racks;
  let rm rk =
    match rk.rm with Some rm -> rm | None -> assert false
  in
  (* The provisioning system's own anti-entropy: re-install any static
     receive-side permit a soft error evicted. Offset from the 100 ms
     soft-error sweep so a repair is visible before the next scan. *)
  let static_reinstalls = ref 0 in
  Array.iter
    (fun rk ->
      let period = Simtime.span_ms 250.0 in
      Engine.every rk.rack_engine
        ~start:(Simtime.add (Engine.now rk.rack_engine) (Simtime.span_ms 125.0))
        period
        (fun () ->
          List.iter
            (fun sp ->
              if not (Tor.Vrf.is_live sp.sp_vrf sp.sp_handle) then
                match Tor.Vrf.install sp.sp_vrf sp.sp_compiled with
                | Ok h ->
                    sp.sp_handle <- h;
                    incr static_reinstalls
                | Error (`Tcam_full | `Install_fault) -> ())
            !(rk.statics);
          `Continue))
    racks;
  (* Express lanes: rack r probes its data lane to r+1 and (when
     distinct) the reverse lane to r-1 that carries its inbound acks. *)
  let lane_names = ref [] in
  let vm_ips rk = [ Host.Vm.ip rk.xs.Host.Server.vm; Host.Vm.ip rk.xr.Host.Server.vm ] in
  Array.iteri
    (fun r rk ->
      let neighbors =
        let next = (r + 1) mod cfg.racks in
        let prev = (r + cfg.racks - 1) mod cfg.racks in
        if next = prev then [ next ] else [ next; prev ]
      in
      List.iter
        (fun d ->
          let dst = racks.(d) in
          let ips = vm_ips dst in
          let name = Printf.sprintf "fc%d->fc%d" r d in
          Fastrak.Tor_controller.add_lane
            (Fastrak.Rule_manager.tor_controller (rm rk))
            ~name
            ~remote_tor:(Tor.Tor_switch.ip dst.tb.Testbed.tor)
            ~covers:(fun ip -> List.exists (Netcore.Ipv4.equal ip) ips);
          lane_names := (rk, name) :: !lane_names)
        neighbors)
    racks;
  Array.iter (fun rk -> Fastrak.Rule_manager.start (rm rk)) racks;
  (* Open-loop paced streams keep offering load right through the
     outage — exactly what the no-blackhole monitor needs to judge. *)
  let streams =
    Array.init cfg.racks (fun r ->
        let src = racks.(r) and dst = racks.((r + 1) mod cfg.racks) in
        Stream.install_sink ~vm:dst.xr.Host.Server.vm ~port:express_port ();
        let sc =
          {
            (Stream.default_config ~dst_ip:(Host.Vm.ip dst.xr.Host.Server.vm)) with
            Stream.dst_port = express_port;
            src_port = 6200 + r;
            message_size;
            window = 1_000_000;
            total_bytes = None;
            paced_rate_bps = Some rate_bps;
          }
        in
        Stream.start ~engine:src.rack_engine ~vm:src.xs.Host.Server.vm sc)
  in
  (* Scripted local-controller crash on rack 0's sender server: the
     process dies mid-run and later restarts from its snapshot,
     reconciles against the surviving dataplane, and resyncs with the
     TOR controller. *)
  let snap = ref None in
  let crash_flight = ref None in
  let crash_dump = ref None in
  let crash_armed =
    cfg.crash_at > 0.0 && cfg.crash_at < cfg.duration
  in
  let crash_lc =
    let rk = racks.(0) in
    match Testbed.server_of_vm rk.tb (Host.Vm.ip rk.xs.Host.Server.vm) with
    | None -> None
    | Some server ->
        Fastrak.Rule_manager.local_controller (rm rk)
          ~server:(Host.Server.name server)
  in
  (match crash_lc with
  | Some lc when crash_armed ->
      ignore
        (Engine.at racks.(0).rack_engine
           (Simtime.of_sec cfg.crash_at)
           (fun () ->
             snap := Some (Fastrak.Local_controller.snapshot lc);
             (* Black-box capture at the instant of failure: freeze the
                recorder's view of the run so far and dump it to its own
                file, which the end-of-run dump leaves alone. *)
             (match Obs.Flight.installed () with
             | Some ring -> crash_flight := Some (Obs.Flight.events ring)
             | None -> ());
             crash_dump :=
               Option.map fst (Obs.Flight.dump_installed ~tag:"crash" ());
             Fastrak.Local_controller.crash lc));
      if cfg.restart_at > cfg.crash_at && cfg.restart_at < cfg.duration then
        ignore
          (Engine.at racks.(0).rack_engine
             (Simtime.of_sec cfg.restart_at)
             (fun () ->
               match !snap with
               | Some snapshot ->
                   Fastrak.Local_controller.restart lc ~snapshot
               | None -> ()))
  | _ -> ());
  Cluster.run ~until:(Simtime.of_sec cfg.duration) cluster;
  (* Quiesce and drain: stop the offered load, let retries and grace
     windows expire, let any directive still in flight at the horizon
     land, then check that every rack's two rule views agree — the
     recovery machinery must leave no divergence behind. *)
  Array.iter Stream.stop streams;
  let horizon = ref (Simtime.of_sec (cfg.duration +. cfg.drain)) in
  Cluster.run ~until:!horizon cluster;
  let rms = Array.to_list (Array.map rm racks) in
  Fastrak.Rule_manager.settle rms ~advance:(fun step ->
      horizon := Simtime.add !horizon step;
      Cluster.run ~until:!horizon cluster);
  let reconciled = List.for_all Fastrak.Rule_manager.views_reconciled rms in
  let lanes_total = List.length !lane_names in
  let lanes_up_at_end =
    List.fold_left
      (fun acc (rk, name) ->
        match
          Fastrak.Tor_controller.lane_is_up
            (Fastrak.Rule_manager.tor_controller (rm rk))
            ~name
        with
        | Some true -> acc + 1
        | Some false | None -> acc)
      0 !lane_names
  in
  let crash_outcome =
    match crash_lc with
    | _ when not crash_armed -> "skipped"
    | None -> "no-controller"
    | Some lc ->
        if !snap = None then "never-crashed"
        else if Fastrak.Local_controller.crashed lc then "still-down"
        else "recovered"
  in
  let moved = Metric_snapshot.counter_delta ~before in
  let sum f = Array.fold_left (fun acc rk -> acc + f rk) 0 racks in
  let recovery_count, recovery_mean_s =
    summary_delta before "fastrak.recovery_time"
  in
  {
    cfg;
    schedule = Faults.Schedule.to_string sched;
    express_sent = Array.fold_left (fun a s -> a + Stream.bytes_sent s) 0 streams;
    express_acked =
      Array.fold_left (fun a s -> a + Stream.bytes_acked s) 0 streams;
    lane_downs = moved "fastrak.failover.lane_down";
    lane_ups = moved "fastrak.failover.lane_up";
    failover_demotions = moved "fastrak.failover.demotions";
    repromotions = moved "fastrak.failover.repromotions";
    recovery_count;
    recovery_mean_s;
    resyncs = moved "fastrak.recovery.resyncs";
    audit_sweeps = moved "fastrak.audit.sweeps";
    audit_reinstalls = moved "fastrak.audit.reinstalls";
    audit_orphans = moved "fastrak.audit.orphans_removed";
    static_reinstalls = !static_reinstalls;
    install_faults = moved "tor.tcam.install_faults";
    soft_errors = moved "tor.tcam.soft_errors";
    fabric_drops = moved "fabric.channel.drops";
    core_routed = Core_switch.packets_routed mr.Multirack.core;
    core_dropped = Core_switch.packets_dropped mr.Multirack.core;
    acl_drops = sum (fun rk -> Tor.Tor_switch.acl_drops rk.tb.Testbed.tor);
    no_route_drops =
      sum (fun rk -> Tor.Tor_switch.no_route_drops rk.tb.Testbed.tor);
    lanes_up_at_end;
    lanes_total;
    offloaded_at_end = sum (fun rk -> Fastrak.Rule_manager.offloaded_count (rm rk));
    crash_outcome;
    crash_flight = !crash_flight;
    crash_dump = !crash_dump;
    reconciled;
  }

let print r =
  Tabular.print_title "fabric-chaos: data-plane failure domains";
  Printf.printf "fault schedule: %s\n" r.schedule;
  Printf.printf
    "  topology: %d racks x %d servers, %.1fs under load + %.1fs drain, \
     %.0f Mbit/s per lane\n"
    r.cfg.racks servers_per_rack r.cfg.duration r.cfg.drain (rate_bps /. 1e6);
  Printf.printf "  express traffic: %d B offered, %d B acked (%.1f%%)\n"
    r.express_sent r.express_acked
    (if r.express_sent > 0 then
       100.0 *. float_of_int r.express_acked /. float_of_int r.express_sent
     else 0.0);
  Printf.printf
    "  fabric faults: %d express-uplink drops; TCAM: %d install faults, %d \
     soft errors\n"
    r.fabric_drops r.install_faults r.soft_errors;
  Printf.printf
    "  failover: %d lane-down, %d lane-up events; %d demotions, %d \
     re-promotions\n"
    r.lane_downs r.lane_ups r.failover_demotions r.repromotions;
  if r.recovery_count > 0 then
    Printf.printf "  lane recovery time: mean %.0f ms over %d outages\n"
      (r.recovery_mean_s *. 1e3) r.recovery_count;
  Printf.printf
    "  anti-entropy: %d audit sweeps, %d reinstalls, %d orphans removed; %d \
     static re-pins; %d resyncs\n"
    r.audit_sweeps r.audit_reinstalls r.audit_orphans r.static_reinstalls
    r.resyncs;
  Printf.printf "  controller crash: %s\n" r.crash_outcome;
  (match r.crash_flight with
  | Some events ->
      Printf.printf "  crash flight recorder: %d event(s)%s\n"
        (List.length events)
        (match r.crash_dump with Some path -> " -> " ^ path | None -> "")
  | None -> ());
  Printf.printf
    "  core routed/dropped: %d/%d; tor acl drops: %d; tor no-route: %d\n"
    r.core_routed r.core_dropped r.acl_drops r.no_route_drops;
  Printf.printf "  at end: %d/%d lanes up, %d aggregates offloaded -> %s\n"
    r.lanes_up_at_end r.lanes_total r.offloaded_at_end
    (if r.reconciled then "views reconciled" else "NOT RECONCILED")
