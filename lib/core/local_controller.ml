module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fkey = Netcore.Fkey

type directive =
  | Offload of { vm_ip : Netcore.Ipv4.t; pattern : Fkey.Pattern.t }
  | Demote of { vm_ip : Netcore.Ipv4.t; pattern : Fkey.Pattern.t }

type sequenced = { seq : int; directive : directive }

type demand_report = { server : string; report : Measurement_engine.report }

type uplink =
  | Report of demand_report
  | Ack of { server : string; seq : int }
  | Resync of { server : string }

type offloaded = {
  off_vm_ip : Netcore.Ipv4.t;
  off_pattern : Fkey.Pattern.t;
  placer_rule : Rules.Rule_table.rule_id;
  mutable blocked_flows : Fkey.t list;
}

type vm_rate_state = {
  mutable last_vif_tx : int;
  mutable last_vf_tx : int;
  mutable last_vif_backlog : float;
  mutable last_vf_backlog : float;
  mutable current_split : Fps.split option;
}

let m_path_to_express = Obs.Metrics.counter "fastrak.path_to_express"
let m_path_to_software = Obs.Metrics.counter "fastrak.path_to_software"

type t = {
  engine : Engine.t;
  config : Config.t;
  server : Host.Server.t;
  me : Measurement_engine.t;
  mutable uplink_sink : uplink -> unit;
  mutable crashed : bool;
  mutable offloaded : offloaded list;
  profiles : (int, Demand_profile.t) Hashtbl.t;  (* vm ip -> profile *)
  rate_states : (int, vm_rate_state) Hashtbl.t;
  (* Highest directive sequence number applied per aggregate. A lossy
     channel can reorder or re-deliver directives; latest-seq-wins per
     pattern makes application idempotent and keeps a stale directive
     from overriding a newer decision for the same aggregate. *)
  applied_seq : int Fkey.Pattern.Table.t;
}

let ip_key (ip : Netcore.Ipv4.t) = (ip :> int)

let classify_for server flow =
  (* Per-VM-per-application aggregation (§4.3.1): outgoing flows fold
     into <src ip, src port, tenant>, incoming into <dst ip, dst port,
     tenant>, relative to the VMs resident on this server. *)
  let local ip = Host.Server.find_attached server ~vm_ip:ip <> None in
  if local flow.Fkey.src_ip then
    Some
      ( Fkey.Pattern.src_aggregate flow,
        {
          Measurement_engine.tenant = flow.Fkey.tenant;
          vm_ip = flow.Fkey.src_ip;
          direction = `Outgoing;
        } )
  else if local flow.Fkey.dst_ip then
    Some
      ( Fkey.Pattern.dst_aggregate flow,
        {
          Measurement_engine.tenant = flow.Fkey.tenant;
          vm_ip = flow.Fkey.dst_ip;
          direction = `Incoming;
        } )
  else None

let create ~engine ~config ~server =
  let ovs = Host.Server.ovs server in
  let me =
    Measurement_engine.create ~engine ~config
      ~name:(Host.Server.name server ^ ".me")
      ~poll:(fun () -> Vswitch.Ovs.active_flows ovs)
      ~expire:(fun () -> Vswitch.Ovs.expire_idle_flows ovs)
      ~classify:(classify_for server)
  in
  let t =
    {
      engine;
      config;
      server;
      me;
      uplink_sink = ignore;
      crashed = false;
      offloaded = [];
      profiles = Hashtbl.create 8;
      rate_states = Hashtbl.create 8;
      applied_seq = Fkey.Pattern.Table.create 16;
    }
  in
  t

let server_name t = Host.Server.name t.server

let profile_for t ~tenant ~vm_ip =
  match Hashtbl.find_opt t.profiles (ip_key vm_ip) with
  | Some p -> p
  | None ->
      let p = Demand_profile.create ~tenant ~vm_ip in
      Hashtbl.replace t.profiles (ip_key vm_ip) p;
      p

let rate_state t vm_ip =
  match Hashtbl.find_opt t.rate_states (ip_key vm_ip) with
  | Some s -> s
  | None ->
      let s =
        {
          last_vif_tx = 0;
          last_vf_tx = 0;
          last_vif_backlog = 0.0;
          last_vf_backlog = 0.0;
          current_split = None;
        }
      in
      Hashtbl.replace t.rate_states (ip_key vm_ip) s;
      s

(* FPS re-adjustment (§4.3.2): each control interval, split every VM's
   contracted transmit limit across the VIF and VF in proportion to
   measured per-path demand, boosting a path that maxed out its previous
   split. *)
let apply_fps t =
  let interval_sec =
    Simtime.span_to_sec t.config.Config.epoch_period
    *. float_of_int Config.epochs_per_interval
  in
  let overflow_bps = Config.overflow_bps in
  List.iter
    (fun (a : Host.Server.attached) ->
      let total_bps =
        (Rules.Policy.tx_limit (Vswitch.Ovs.vif_policy a.vif))
          .Rules.Rate_limit_spec.rate_bps
      in
      (* An unlimited VM has nothing to split. *)
      if total_bps <> infinity then begin
        let st = rate_state t (Host.Vm.ip a.vm) in
        let vif_tx = Vswitch.Ovs.vif_tx_bytes a.vif in
        let vf_tx = Nic.Sriov.vf_tx_bytes a.vf in
        let vif_backlog = Vswitch.Ovs.vif_tx_backlogged_seconds a.vif in
        let vf_backlog = Nic.Sriov.vf_tx_backlogged_seconds a.vf in
        let bps last current =
          float_of_int (current - last) *. 8.0 /. interval_sec
        in
        let maxed last current = current -. last > 0.2 *. interval_sec in
        let split =
          Fps.split ~total_bps ~overflow_bps ~current:st.current_split
            {
              Fps.demand_soft_bps = bps st.last_vif_tx vif_tx;
              demand_hard_bps = bps st.last_vf_tx vf_tx;
              soft_maxed = maxed st.last_vif_backlog vif_backlog;
              hard_maxed = maxed st.last_vf_backlog vf_backlog;
            }
        in
        if Obs.Trace.enabled () then
          Obs.Trace.emit ~now:(Engine.now t.engine)
            (Obs.Trace.Fps_split
               {
                 vm_ip = Host.Vm.ip a.vm;
                 soft_bps = split.Fps.soft.Rules.Rate_limit_spec.rate_bps;
                 hard_bps = split.Fps.hard.Rules.Rate_limit_spec.rate_bps;
                 total_bps;
                 overflow_bps;
               });
        Vswitch.Ovs.set_vif_tx_limit a.vif split.Fps.soft;
        Nic.Sriov.set_vf_tx_limit a.vf split.Fps.hard;
        st.current_split <- Some split;
        st.last_vif_tx <- vif_tx;
        st.last_vf_tx <- vf_tx;
        st.last_vif_backlog <- vif_backlog;
        st.last_vf_backlog <- vf_backlog
      end)
    (Host.Server.vms t.server)

let start t =
  Measurement_engine.on_report t.me (fun report ->
      (* Fold the interval into per-VM demand profiles, re-run FPS, and
         ship the report to the TOR controller. *)
      List.iter
        (fun (e : Measurement_engine.entry) ->
          let owner = e.Measurement_engine.owner in
          Demand_profile.update
            (profile_for t ~tenant:owner.Measurement_engine.tenant
               ~vm_ip:owner.Measurement_engine.vm_ip)
            { report with entries = [ e ] })
        report.Measurement_engine.entries;
      (* An entry no report refreshed for a whole history window
         describes an aggregate the ME has dropped. *)
      let before =
        report.Measurement_engine.interval_index
        - Config.history_intervals + 1
      in
      Hashtbl.iter (fun _ p -> Demand_profile.expire p ~before) t.profiles;
      apply_fps t;
      t.uplink_sink (Report { server = server_name t; report }));
  Measurement_engine.start t.me

let set_uplink t sink = t.uplink_sink <- sink

let pattern_equal = Fkey.Pattern.equal

let handle_directive t = function
  | Offload { vm_ip; pattern } -> (
      match Host.Server.find_attached t.server ~vm_ip with
      | None -> ()
      | Some a ->
          if
            not
              (List.exists
                 (fun o ->
                   pattern_equal o.off_pattern pattern
                   && Netcore.Ipv4.equal o.off_vm_ip vm_ip)
                 t.offloaded)
          then begin
            let placer_rule =
              Host.Bonding.install_rule a.bonding ~pattern
                ~priority:(Fkey.Pattern.specificity pattern)
                Host.Bonding.Vf
            in
            (* In-flight packets of the redirected flows still sitting in
               the vswitch pipeline are lost (§6.2.2). Blocking the exact
               flows drops them as they surface; the placer sends all new
               packets via the VF, so the block never sees live traffic.
               [active_flows] lists only flows that counted a packet
               since the ME's previous epoch began. That is enough:
               every stock epoch lasts at least 5 ms, far longer than a
               packet stays in the vswitch pipeline in any stock run,
               so blocking a flow idle for longer only ever removed its
               flow-cache entry. *)
            let ovs = Host.Server.ovs t.server in
            let matching =
              List.filter_map
                (fun (flow, _, _) ->
                  if Fkey.Pattern.matches pattern flow then Some flow else None)
                (Vswitch.Ovs.active_flows ovs)
            in
            List.iter (fun flow -> Vswitch.Ovs.set_flow_blocked ovs flow true) matching;
            t.offloaded <-
              { off_vm_ip = vm_ip; off_pattern = pattern; placer_rule; blocked_flows = matching }
              :: t.offloaded;
            Obs.Metrics.incr m_path_to_express;
            if Obs.Trace.enabled () then
              Obs.Trace.emit ~now:(Engine.now t.engine)
                (Obs.Trace.Path_transition
                   { vm_ip; pattern; path = Obs.Trace.Express })
          end)
  | Demote { vm_ip; pattern } -> (
      let matches o =
        pattern_equal o.off_pattern pattern && Netcore.Ipv4.equal o.off_vm_ip vm_ip
      in
      match List.find_opt matches t.offloaded with
      | None -> ()
      | Some o ->
          (match Host.Server.find_attached t.server ~vm_ip with
          | Some a -> ignore (Host.Bonding.remove_rule a.bonding o.placer_rule)
          | None -> ());
          let ovs = Host.Server.ovs t.server in
          List.iter
            (fun flow -> Vswitch.Ovs.set_flow_blocked ovs flow false)
            o.blocked_flows;
          t.offloaded <- List.filter (fun x -> not (matches x)) t.offloaded;
          Obs.Metrics.incr m_path_to_software;
          if Obs.Trace.enabled () then
            Obs.Trace.emit ~now:(Engine.now t.engine)
              (Obs.Trace.Path_transition
                 { vm_ip; pattern; path = Obs.Trace.Software }))

let directive_pattern = function
  | Offload { pattern; _ } | Demote { pattern; _ } -> pattern

let handle_sequenced t { seq; directive } =
  (* A crashed controller process neither applies nor acks: the TOR
     controller's retry loop (and eventually its dead-peer detector)
     sees exactly what a real dead process would produce — silence. *)
  if t.crashed then ()
  else begin
  let pattern = directive_pattern directive in
  let last =
    Option.value (Fkey.Pattern.Table.find_opt t.applied_seq pattern) ~default:(-1)
  in
  if seq > last then begin
    Fkey.Pattern.Table.replace t.applied_seq pattern seq;
    handle_directive t directive
  end;
  (* Ack everything received, including stale re-deliveries: the sender
     only needs to learn the directive arrived, and a lost earlier ack
     must not wedge its retry loop. *)
  t.uplink_sink (Ack { server = server_name t; seq })
  end

(* --- Crash and recovery ---

   A crash kills the controller PROCESS, not the dataplane: placer
   rules, blocked flows and FPS limits live in the kernel/NIC and keep
   steering packets while the process is down. Restart therefore means
   reconciling a (possibly stale) persisted snapshot of intent against
   whatever the dataplane actually holds, then asking the TOR
   controller for the authoritative picture with a [Resync]. *)

type snapshot = (Netcore.Ipv4.t * Fkey.Pattern.t) list

let snapshot t = List.map (fun o -> (o.off_vm_ip, o.off_pattern)) t.offloaded

let crashed t = t.crashed

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    Measurement_engine.stop t.me;
    (* All soft state dies with the process. *)
    t.offloaded <- [];
    Fkey.Pattern.Table.reset t.applied_seq;
    Hashtbl.reset t.profiles;
    Hashtbl.reset t.rate_states
  end

let restart t ~snapshot:snap =
  if t.crashed then begin
    t.crashed <- false;
    (* Re-adopt every snapshot entry whose Vf placer rule survived in
       the dataplane; entries whose rule is gone are simply dropped
       (the flow is already on the always-correct software path). *)
    List.iter
      (fun (vm_ip, pattern) ->
        match Host.Server.find_attached t.server ~vm_ip with
        | None -> ()
        | Some a -> (
            match
              List.find_opt
                (fun (_, p, path) ->
                  path = Host.Bonding.Vf && pattern_equal p pattern)
                (Host.Bonding.rules a.bonding)
            with
            | Some (id, _, _) ->
                if
                  not
                    (List.exists
                       (fun o ->
                         pattern_equal o.off_pattern pattern
                         && Netcore.Ipv4.equal o.off_vm_ip vm_ip)
                       t.offloaded)
                then
                  t.offloaded <-
                    {
                      off_vm_ip = vm_ip;
                      off_pattern = pattern;
                      placer_rule = id;
                      blocked_flows = [];
                    }
                    :: t.offloaded
            | None -> ()))
      snap;
    (* Orphan Vf rules: dataplane redirects no adopted entry vouches
       for (offloads applied after the snapshot was taken, or whose VM
       moved away). The hardware rules backing them can no longer be
       trusted, so send those aggregates back to software. *)
    List.iter
      (fun (a : Host.Server.attached) ->
        let vm_ip = Host.Vm.ip a.vm in
        List.iter
          (fun (id, _, path) ->
            if
              path = Host.Bonding.Vf
              && not
                   (List.exists
                      (fun o ->
                        Netcore.Ipv4.equal o.off_vm_ip vm_ip
                        && o.placer_rule = id)
                      t.offloaded)
            then ignore (Host.Bonding.remove_rule a.bonding id))
          (Host.Bonding.rules a.bonding))
      (Host.Server.vms t.server);
    (* Blocked flows: a block whose offload no longer exists would
       blackhole the software path forever — lift it. Blocks still
       covered by an adopted offload are re-attached to it so the
       eventual demote unblocks them as usual. *)
    let ovs = Host.Server.ovs t.server in
    List.iter
      (fun flow ->
        match
          List.find_opt
            (fun o -> Fkey.Pattern.matches o.off_pattern flow)
            t.offloaded
        with
        | Some o ->
            if not (List.exists (Fkey.equal flow) o.blocked_flows) then
              o.blocked_flows <- flow :: o.blocked_flows
        | None -> Vswitch.Ovs.set_flow_blocked ovs flow false)
      (Vswitch.Ovs.blocked_flows ovs);
    Measurement_engine.start t.me;
    (* Announce the restart: the TOR controller answers by re-sending
       its full offload intent for this server with fresh sequence
       numbers (our applied_seq table died with the process). *)
    t.uplink_sink (Resync { server = server_name t })
  end

let offloaded_patterns t = List.map (fun o -> o.off_pattern) t.offloaded

let profile t ~vm_ip = Hashtbl.find_opt t.profiles (ip_key vm_ip)

let take_profile t ~vm_ip =
  match Hashtbl.find_opt t.profiles (ip_key vm_ip) with
  | Some p ->
      Hashtbl.remove t.profiles (ip_key vm_ip);
      Some p
  | None -> None

let adopt_profile t p =
  (* Entries age from their adoption, on this controller's ME clock. *)
  Demand_profile.restamp p
    ~interval:(Measurement_engine.intervals_completed t.me);
  Hashtbl.replace t.profiles (ip_key (Demand_profile.vm_ip p)) p

let aggregate_count t = Measurement_engine.aggregate_count t.me

let revalidate_vm_cache t ~vm_ip ~reason =
  match Host.Server.find_attached t.server ~vm_ip with
  | None -> ()
  | Some a ->
      ignore
        (Vswitch.Flow_cache.revalidate
           (Vswitch.Ovs.vif_cache a.Host.Server.vif)
           ~now:(Engine.now t.engine) ~reason)
