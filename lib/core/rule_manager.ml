module Engine = Dcsim.Engine

let m_vm_migrations = Obs.Metrics.counter "fastrak.vm_migrations"
let m_migration_aborts = Obs.Metrics.counter "fastrak.migration_aborts"

type t = {
  engine : Engine.t;
  config : Config.t;
  tor_ctrl : Tor_controller.t;
  locals : (string * Local_controller.t) list;
}

type migration_state = [ `Preparing | `Committed | `Aborted ]

type migration = {
  mg_vm_ip : Netcore.Ipv4.t;
  mg_source : string option;
  mg_profile : Demand_profile.t option;
  mg_returned : Tor_controller.returned_rule list;
  mutable mg_state : migration_state;
  mutable mg_timer : Engine.handle option;
  mutable mg_span : Obs.Span.id;  (* prepare -> commit/abort *)
}

let create ~engine ~config ~tor ~servers ?faults () =
  let lookup_vm ~tenant ~vm_ip =
    ignore tenant;
    List.find_map
      (fun server ->
        match Host.Server.find_attached server ~vm_ip with
        | Some attached -> Some (server, attached)
        | None -> None)
      servers
  in
  let tor_ctrl = Tor_controller.create ~engine ~config ~tor ~lookup_vm in
  (* Each control channel gets its own injector on a decorrelated RNG
     stream, so one channel's draws never perturb another's. A [None]
     or channel-fault-free schedule builds no injector at all: the
     channels take the historical reliable path and the run is
     byte-identical to one without the fault machinery. *)
  let injector label =
    match faults with
    | Some sched when Faults.Schedule.has_channel_faults sched ->
        Some
          (Faults.Injector.create ~schedule:sched
             ~rng:(Dcsim.Rng.split (Engine.rng engine) ("faults." ^ label)))
    | _ -> None
  in
  (* TCAM failure modes ride the same schedule: a probabilistic
     install-failure hook on every tenant VRF, and a periodic sweep
     that soft-errors (silently evicts) installed entries. Each draws
     from its own decorrelated stream; an unarmed schedule touches
     nothing. *)
  (match faults with
  | Some sched when Faults.Schedule.has_tcam_faults sched ->
      let fail_p = sched.Faults.Schedule.tcam_install_fail in
      if fail_p > 0.0 then begin
        let rng = Dcsim.Rng.split (Engine.rng engine) "faults.tcam.install" in
        Tor.Tor_switch.set_install_fault tor
          (Some (fun () -> Dcsim.Rng.float rng 1.0 < fail_p))
      end;
      let soft_p = sched.Faults.Schedule.tcam_soft_error in
      if soft_p > 0.0 then begin
        let rng = Dcsim.Rng.split (Engine.rng engine) "faults.tcam.soft" in
        let period = Dcsim.Simtime.span_ms 100.0 in
        Engine.every engine
          ~start:(Dcsim.Simtime.add (Engine.now engine) period)
          period
          (fun () ->
            Tor.Tor_switch.iter_vrfs tor (fun vrf ->
                if Dcsim.Rng.float rng 1.0 < soft_p then
                  ignore (Tor.Vrf.evict_random vrf ~rng));
            `Continue)
      end
  | _ -> ());
  let locals =
    List.map
      (fun server ->
        let local = Local_controller.create ~engine ~config ~server in
        let name = Host.Server.name server in
        (* Uplink: demand reports and directive acks to the TOR
           controller. *)
        let uplink_name = name ^ ".uplink" in
        let uplink_channel =
          Fabric.Channel.create ~name:uplink_name
            ?faults:(injector uplink_name) ~src:engine ~dst:engine
            ~latency:Config.controller_latency
            ~handler:(fun u -> Tor_controller.receive_uplink tor_ctrl u)
            ()
        in
        Local_controller.set_uplink local (fun u ->
            Fabric.Channel.send uplink_channel u);
        (* Downlink: sequenced offload/demote directives to the local
           controller. *)
        let directive_name = name ^ ".directive" in
        let directive_channel =
          Fabric.Channel.create ~name:directive_name
            ?faults:(injector directive_name) ~src:engine ~dst:engine
            ~latency:Config.controller_latency
            ~handler:(fun d -> Local_controller.handle_sequenced local d)
            ()
        in
        Tor_controller.register_local tor_ctrl ~name ~directive_channel;
        (name, local))
      servers
  in
  { engine; config; tor_ctrl; locals }

let start t =
  List.iter (fun (_, local) -> Local_controller.start local) t.locals;
  Tor_controller.start t.tor_ctrl

let tor_controller t = t.tor_ctrl
let local_controller t ~server = List.assoc_opt server t.locals
let offloaded_count t = Tor_controller.offloaded_count t.tor_ctrl

let server_offloaded_patterns t =
  List.concat_map
    (fun (_, local) -> Local_controller.offloaded_patterns local)
    t.locals

let views_reconciled t =
  let tor_view = Tor_controller.offloaded_patterns t.tor_ctrl in
  let server_view = server_offloaded_patterns t in
  let subset xs ys =
    List.for_all (fun x -> List.exists (Netcore.Fkey.Pattern.equal x) ys) xs
  in
  subset tor_view server_view && subset server_view tor_view

let settle ts ~advance =
  (* One directive's full retry schedule, in 1 ms steps: the ack
     timeout doubles over [directive_attempts] transmissions. *)
  let cap =
    Dcsim.Simtime.span_to_ns Config.directive_timeout
    * ((1 lsl Config.directive_attempts) - 1)
    / 1_000_000
  in
  let in_flight t = Tor_controller.unacked_directives t.tor_ctrl > 0 in
  let rec wait n =
    if n < cap && List.exists in_flight ts then begin
      advance (Dcsim.Simtime.span_ms 1.0);
      wait (n + 1)
    end
  in
  wait 0

(* --- Two-phase VM migration ---

   Prepare returns the VM's offloaded rules to its hypervisor and
   detaches its demand profile; commit adopts the profile at the
   destination. If nobody commits within [migration_timeout] — the
   destination host never confirmed — the migration aborts: the profile
   goes back to the source local controller and the returned rules are
   re-installed, so an unconfirmed migration costs at most a temporary
   trip through the software path. *)

let emit_stage t mg stage =
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~now:(Engine.now t.engine)
      (Obs.Trace.Migration_stage { vm_ip = mg.mg_vm_ip; stage })

let cancel_timer t mg =
  match mg.mg_timer with
  | Some h ->
      ignore (Engine.cancel t.engine h);
      mg.mg_timer <- None
  | None -> ()

let abort_vm_migration t mg =
  if mg.mg_state = `Preparing then begin
    mg.mg_state <- `Aborted;
    cancel_timer t mg;
    Obs.Metrics.incr m_migration_aborts;
    emit_stage t mg `Abort;
    Obs.Span.finish ~now:(Engine.now t.engine) mg.mg_span ~outcome:"abort";
    mg.mg_span <- Obs.Span.none;
    (match (mg.mg_source, mg.mg_profile) with
    | Some source, Some profile -> (
        match List.assoc_opt source t.locals with
        | Some local -> Local_controller.adopt_profile local profile
        | None -> ())
    | _ -> ());
    Tor_controller.reinstall t.tor_ctrl mg.mg_returned;
    (* Verdicts cached during the preparing window may reflect the
       demoted rule state; re-check them now that the rules are back. *)
    (match mg.mg_source with
    | Some source -> (
        match List.assoc_opt source t.locals with
        | Some local ->
            Local_controller.revalidate_vm_cache local ~vm_ip:mg.mg_vm_ip
              ~reason:"vm_migration"
        | None -> ())
    | None -> ())
  end

let begin_vm_migration t ~tenant ~vm_ip =
  ignore tenant;
  Obs.Metrics.incr m_vm_migrations;
  let span =
    if Obs.Trace.enabled () then
      Obs.Span.start ~now:(Engine.now t.engine) ~kind:"migration"
        ~name:("migrate " ^ Netcore.Ipv4.to_string vm_ip)
        ~track:"tor" ()
    else Obs.Span.none
  in
  let returned = Tor_controller.demote_all_for_vm t.tor_ctrl ~vm_ip in
  let source, profile =
    match
      List.find_opt
        (fun (_, local) -> Local_controller.profile local ~vm_ip <> None)
        t.locals
    with
    | Some (name, local) ->
        (Some name, Local_controller.take_profile local ~vm_ip)
    | None -> (None, None)
  in
  let mg =
    {
      mg_vm_ip = vm_ip;
      mg_source = source;
      mg_profile = profile;
      mg_returned = returned;
      mg_state = `Preparing;
      mg_timer = None;
      mg_span = span;
    }
  in
  emit_stage t mg `Prepare;
  (* The demote-all above blocks and re-routes the VM's offloaded
     aggregates; revalidate its VIF cache so no pre-migration verdict
     outlives the prepare. *)
  (match source with
  | Some name -> (
      match List.assoc_opt name t.locals with
      | Some local ->
          Local_controller.revalidate_vm_cache local ~vm_ip ~reason:"vm_migration"
      | None -> ())
  | None -> ());
  mg.mg_timer <-
    Some
      (Engine.after t.engine t.config.Config.migration_timeout (fun () ->
           mg.mg_timer <- None;
           abort_vm_migration t mg));
  mg

let commit_vm_migration t mg ~new_server =
  match List.assoc_opt new_server t.locals with
  | None -> invalid_arg ("Rule_manager: unknown server " ^ new_server)
  | Some local ->
      if mg.mg_state <> `Preparing then false
      else begin
        mg.mg_state <- `Committed;
        cancel_timer t mg;
        emit_stage t mg `Commit;
        Obs.Span.finish ~now:(Engine.now t.engine) mg.mg_span ~outcome:"commit";
        mg.mg_span <- Obs.Span.none;
        (match mg.mg_profile with
        | Some profile -> Local_controller.adopt_profile local profile
        | None -> ());
        Local_controller.revalidate_vm_cache local ~vm_ip:mg.mg_vm_ip
          ~reason:"vm_migration";
        true
      end

(* Cross-rack variant: the destination server belongs to a different
   rack's Rule_manager, so adoption and commit are split. The
   destination adopts the shipped profile; the source marks the
   migration committed once the destination's ack arrives. If the ack
   never does, the prepare timeout aborts as usual and the rules come
   home. *)

let adopt_vm_profile t ~server ~vm_ip ~profile =
  match List.assoc_opt server t.locals with
  | None -> invalid_arg ("Rule_manager: unknown server " ^ server)
  | Some local ->
      Local_controller.adopt_profile local profile;
      Local_controller.revalidate_vm_cache local ~vm_ip ~reason:"vm_migration"

let commit_vm_migration_remote t mg =
  if mg.mg_state <> `Preparing then false
  else begin
    mg.mg_state <- `Committed;
    cancel_timer t mg;
    emit_stage t mg `Commit;
    Obs.Span.finish ~now:(Engine.now t.engine) mg.mg_span ~outcome:"commit";
    mg.mg_span <- Obs.Span.none;
    true
  end

let migration_state mg = mg.mg_state
let migration_profile mg = mg.mg_profile
