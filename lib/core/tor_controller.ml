module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fkey = Netcore.Fkey

type offload_state = {
  os_pattern : Fkey.Pattern.t;
  os_tenant : Netcore.Tenant.id;
  os_vm_ip : Netcore.Ipv4.t;
  os_server : string;
  (* Mutable because the anti-entropy audit reinstalls entries lost to
     TCAM soft errors under a fresh handle. *)
  mutable os_handle : Tor.Vrf.handle;
  os_compiled : Rules.Rule_compiler.compiled;
  os_entries : int;
  os_created : Simtime.t;  (* VRF install instant; install latency base *)
  mutable os_score : float;
  (* Causal spans: the whole offload (promotion -> demotion) and the
     install handshake inside it. [Obs.Span.none] when tracing is off. *)
  mutable os_span : Obs.Span.id;
  mutable os_install_span : Obs.Span.id;
}

(* One directive awaiting its ack. *)
type pending = {
  p_directive : Local_controller.directive;
  p_sent : Simtime.t;  (* first transmission; RTT base *)
  p_span : Obs.Span.id;  (* send -> ack/exhaustion round trip *)
  mutable p_attempt : int;  (* transmissions so far, >= 1 *)
  mutable p_timer : Engine.handle option;
  p_on_result : [ `Acked | `Failed ] -> unit;
}

(* A demote whose retries were exhausted: the local controller may
   still be steering the aggregate to the VF even though the VRF rules
   are gone. Replayed (with its ORIGINAL sequence number, so it can
   never override a newer directive) on every subsequent contact with
   the peer until acked. *)
type unreconciled = {
  u_seq : int;
  u_directive : Local_controller.directive;
  mutable u_inflight : bool;
}

type peer = {
  peer_name : string;
  chan : Local_controller.sequenced Fabric.Channel.t;
  p_pending : (int, pending) Hashtbl.t;  (* seq -> awaiting ack *)
  mutable alive : bool;
  mutable consecutive_failures : int;
  mutable unreconciled : unreconciled list;
}

type returned_rule = {
  rr_pattern : Fkey.Pattern.t;
  rr_tenant : Netcore.Tenant.id;
  rr_vm_ip : Netcore.Ipv4.t;
  rr_server : string;
  rr_score : float;
}

(* One express lane towards a peer ToR, kept honest by BFD-style
   probes that ride the same GRE path as offloaded traffic. Hysteresis
   on both edges: [lane_down_misses] silent probe intervals declare it
   down, [lane_up_oks] replying intervals declare it healthy — so a
   single lost or healed probe never flaps the lane. *)
type lane = {
  lane_name : string;
  lane_remote : Netcore.Ipv4.t;
  lane_covers : Netcore.Ipv4.t -> bool;
      (* Which destination VM addresses ride this lane. *)
  mutable lane_seq : int;
  mutable lane_replies : int;  (* replies since the last probe tick *)
  mutable lane_miss_streak : int;
  mutable lane_ok_streak : int;
  mutable lane_up : bool;
  mutable lane_down_since : Simtime.t option;
  (* Aggregates demoted by this lane's failure, re-promoted on heal. *)
  mutable lane_stash : returned_rule list;
}

let m_promotions = Obs.Metrics.counter "fastrak.promotions"
let m_demotions = Obs.Metrics.counter "fastrak.demotions"
let m_retries = Obs.Metrics.counter "fastrak.directive_retries"
let m_failures = Obs.Metrics.counter "fastrak.directive_failures"
let m_peer_deaths = Obs.Metrics.counter "fastrak.peer_deaths"
let m_offloaded_current = Obs.Metrics.gauge "fastrak.offloaded_current"
let m_offload_score = Obs.Metrics.summary "fastrak.offload.score"

(* Failure-domain accounting: lane state transitions, the flows they
   demote/re-promote, recovery latency (down -> healthy, seconds), and
   the crash-recovery / anti-entropy repair machinery. *)
let m_lane_down = Obs.Metrics.counter "fastrak.failover.lane_down"
let m_lane_up = Obs.Metrics.counter "fastrak.failover.lane_up"
let m_failover_demotions = Obs.Metrics.counter "fastrak.failover.demotions"
let m_failover_repromotions = Obs.Metrics.counter "fastrak.failover.repromotions"
let m_recovery_time = Obs.Metrics.summary "fastrak.recovery_time"
let m_resyncs = Obs.Metrics.counter "fastrak.recovery.resyncs"
let m_audit_sweeps = Obs.Metrics.counter "fastrak.audit.sweeps"
let m_audit_reinstalls = Obs.Metrics.counter "fastrak.audit.reinstalls"
let m_audit_orphans = Obs.Metrics.counter "fastrak.audit.orphans_removed"

(* Timeseries the decision loop feeds when [--timeseries-out] is on
   (Obs.Timeseries.enabled guards every site). *)
let ts_rtt = Obs.Timeseries.series "fastrak.directive_rtt_us"
let ts_install = Obs.Timeseries.series "fastrak.install_latency_us"
let ts_tcam = Obs.Timeseries.series "tor.tcam.used"
let ts_soft_pps = Obs.Timeseries.series "path.software.pps"
let ts_hard_pps = Obs.Timeseries.series "path.express.pps"

(* Per-path packet counters, read as deltas per control interval. *)
let c_soft_tx = Obs.Metrics.counter "vswitch.tx_packets"
let c_hard_tx = Obs.Metrics.counter "nic.vf_tx_packets"

(* Tenant-labeled breakdowns of offload churn. *)
let fam_promotions =
  Obs.Metrics.counter_family ~label:"tenant" "fastrak.promotions"

let fam_demotions =
  Obs.Metrics.counter_family ~label:"tenant" "fastrak.demotions"

(* The per-tenant tx families declared at the vswitch and NIC emitters,
   re-opened here; their per-interval deltas become the per-tenant pps
   series "tenant.<id>.pps". *)
let fam_soft_tx = Obs.Metrics.counter_family ~label:"tenant" "vswitch.tx_packets"
let fam_hard_tx = Obs.Metrics.counter_family ~label:"tenant" "nic.vf_tx_packets"

type t = {
  engine : Engine.t;
  config : Config.t;
  tor : Tor.Tor_switch.t;
  lookup_vm :
    tenant:Netcore.Tenant.id ->
    vm_ip:Netcore.Ipv4.t ->
    (Host.Server.t * Host.Server.attached) option;
  tenant_priority : Netcore.Tenant.id -> float;
  group_of : Fkey.Pattern.t -> int option;
  tor_me : Measurement_engine.t;
  mutable locals : (string * peer) list;
  mutable next_seq : int;
  latest_reports : (string, Measurement_engine.report) Hashtbl.t;
  mutable latest_tor_report : Measurement_engine.report option;
  mutable offloaded : offload_state list;
  destinations : (Fkey.Pattern.t, Netcore.Ipv4.t list) Hashtbl.t;
  mutable lanes : lane list;
  mutable probing : bool;
  (* TCAM handles THIS controller installed, keyed (tenant, handle).
     The anti-entropy audit only ever touches managed handles, so
     statically pinned experiment entries are never swept. *)
  managed : (int * Tor.Vrf.handle, unit) Hashtbl.t;
  (* Managed handles whose removal is scheduled (demote grace window):
     live in hardware, absent from intent, but not orphans. *)
  pending_removal : (int * Tor.Vrf.handle, unit) Hashtbl.t;
  mutable running : bool;
  (* Last (instant, vswitch tx, VF tx) sample for per-path pps deltas. *)
  mutable ts_prev : (Simtime.t * int * int) option;
  (* Last combined (vswitch + VF) tx count per tenant, for the
     per-tenant pps deltas. *)
  ts_tenant_prev : (int, int) Hashtbl.t;
  (* Pooled working storage reused by every decide call. *)
  decide_scratch : Decision_engine.scratch;
}

let create ~engine ~config ~tor ~lookup_vm ?(tenant_priority = fun _ -> 1.0)
    ?(group_of = fun _ -> None) () =
  let t_ref = ref None in
  let classify flow =
    match !t_ref with
    | None -> None
    | Some t -> (
        match
          List.find_opt
            (fun os -> Fkey.Pattern.matches os.os_pattern flow)
            t.offloaded
        with
        | None -> None
        | Some os ->
            Some
              ( os.os_pattern,
                {
                  Measurement_engine.tenant = os.os_tenant;
                  vm_ip = os.os_vm_ip;
                  direction = `Outgoing;
                } ))
  in
  let tor_me =
    Measurement_engine.create ~engine ~config ~name:"tor.me"
      ~poll:(fun () -> Tor.Tor_switch.offloaded_flows tor)
      ~classify
  in
  let t =
    {
      engine;
      config;
      tor;
      lookup_vm;
      tenant_priority;
      group_of;
      tor_me;
      locals = [];
      next_seq = 0;
      latest_reports = Hashtbl.create 8;
      latest_tor_report = None;
      offloaded = [];
      destinations = Hashtbl.create 32;
      lanes = [];
      probing = false;
      managed = Hashtbl.create 32;
      pending_removal = Hashtbl.create 8;
      running = false;
      ts_prev = None;
      ts_tenant_prev = Hashtbl.create 16;
      decide_scratch = Decision_engine.create_scratch ();
    }
  in
  t_ref := Some t;
  (* Offloaded flows are invisible to the vswitches; the TOR ME's own
     reports keep their scores fresh so winners are not demoted for
     lack of software-side evidence. *)
  Measurement_engine.on_report tor_me (fun r -> t.latest_tor_report <- Some r);
  t

let register_local t ~name ~directive_channel =
  let peer =
    {
      peer_name = name;
      chan = directive_channel;
      p_pending = Hashtbl.create 8;
      alive = true;
      consecutive_failures = 0;
      unreconciled = [];
    }
  in
  t.locals <- (name, peer) :: t.locals

let entry_score t (e : Measurement_engine.entry) =
  Scoring.score ~epochs_active:e.epochs_active ~median_pps:e.median_pps
    ~priority:(t.tenant_priority e.owner.Measurement_engine.tenant)
    ()

let max_destinations = 16

let build_candidates t =
  (* Merge per-pattern: software-side reports (flows not yet offloaded,
     or trailing software traffic) and the TOR ME (offloaded flows). *)
  let table : (Fkey.Pattern.t, Decision_engine.candidate) Hashtbl.t =
    Hashtbl.create 32
  in
  let server_of : (Fkey.Pattern.t, string) Hashtbl.t = Hashtbl.create 32 in
  let note_entry source_server (e : Measurement_engine.entry) =
    if e.owner.Measurement_engine.direction = `Outgoing then begin
      let dests =
        let previous =
          Option.value (Hashtbl.find_opt t.destinations e.pattern) ~default:[]
        in
        let merged =
          List.fold_left
            (fun acc d ->
              if List.exists (Netcore.Ipv4.equal d) acc then acc else d :: acc)
            previous e.destinations
        in
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: r -> x :: take (n - 1) r
        in
        take max_destinations merged
      in
      Hashtbl.replace t.destinations e.pattern dests;
      (match source_server with
      | Some s -> Hashtbl.replace server_of e.pattern s
      | None -> ());
      let score = entry_score t e in
      let candidate =
        {
          Decision_engine.pattern = e.pattern;
          tenant = e.owner.Measurement_engine.tenant;
          vm_ip = e.owner.Measurement_engine.vm_ip;
          score;
          tcam_entries = 1 + List.length dests;
          group = t.group_of e.pattern;
        }
      in
      match Hashtbl.find_opt table e.pattern with
      | Some existing when existing.Decision_engine.score >= score -> ()
      | _ -> Hashtbl.replace table e.pattern candidate
    end
  in
  Hashtbl.iter
    (fun server (report : Measurement_engine.report) ->
      List.iter (note_entry (Some server)) report.entries)
    t.latest_reports;
  (match t.latest_tor_report with
  | Some (report : Measurement_engine.report) ->
      List.iter (note_entry None) report.entries
  | None -> ());
  (* Keep offloaded scores fresh from the hardware counters; remember
     them on the state so decide() sees current values. *)
  List.iter
    (fun os ->
      match
        Hashtbl.find_opt table os.os_pattern
      with
      | Some c -> os.os_score <- c.Decision_engine.score
      | None -> os.os_score <- 0.0)
    t.offloaded;
  (table, server_of)

let peer_of t server = List.assoc_opt server t.locals

let grace_before_vrf_removal t =
  Simtime.span_add
    (Simtime.span_scale 2.0 t.config.Config.controller_latency)
    (Simtime.span_ms 10.0)

let transmit peer ~seq directive =
  Fabric.Channel.send peer.chan { Local_controller.seq; directive }

(* --- Acknowledged directive delivery ---

   Every directive carries a rack-wide sequence number and stays
   pending until the local controller acks it on the uplink. A pending
   directive is retransmitted on timeout with exponential backoff;
   after [directive_attempts] transmissions it is declared failed,
   which feeds the dead-peer detector and the caller's rollback logic.
   The functions below are mutually recursive because a failure can
   demote flows (mark_dead -> apply_demote) and demoting sends another
   acknowledged directive. *)

let rec send_directive t ?(parent = Obs.Span.none) peer directive ~on_result =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  (* Announce only freshly issued directives: unreconciled-demote
     replays (send_with_seq from note_contact) reuse an old seq on
     purpose and must not look like a sequence regression. *)
  let span =
    if Obs.Trace.enabled () then begin
      let now = Engine.now t.engine in
      let pattern, push =
        match directive with
        | Local_controller.Offload { pattern; _ } -> (pattern, `Offload)
        | Local_controller.Demote { pattern; _ } -> (pattern, `Demote)
      in
      Obs.Trace.emit ~now
        (Obs.Trace.Rule_pushed { server = peer.peer_name; pattern; push; seq });
      Obs.Span.start ~now ~parent ~kind:"directive"
        ~name:
          (Printf.sprintf "%s seq=%d"
             (match push with `Offload -> "offload" | `Demote -> "demote")
             seq)
        ~track:peer.peer_name ()
    end
    else Obs.Span.none
  in
  send_with_seq t peer ~seq ~span directive ~on_result

and send_with_seq t peer ~seq ~span directive ~on_result =
  let p =
    {
      p_directive = directive;
      p_sent = Engine.now t.engine;
      p_span = span;
      p_attempt = 1;
      p_timer = None;
      p_on_result = on_result;
    }
  in
  Hashtbl.replace peer.p_pending seq p;
  transmit peer ~seq directive;
  arm_retry t peer ~seq p

and arm_retry t peer ~seq p =
  (* Backoff doubles per transmission: timeout, 2x, 4x, ... *)
  let timeout =
    Simtime.span_scale
      (float_of_int (1 lsl (p.p_attempt - 1)))
      t.config.Config.directive_timeout
  in
  p.p_timer <- Some (Engine.after t.engine timeout (fun () -> on_timeout t peer ~seq p))

and on_timeout t peer ~seq p =
  p.p_timer <- None;
  if not (Hashtbl.mem peer.p_pending seq) then ()
  else if p.p_attempt >= t.config.Config.directive_attempts then begin
    Hashtbl.remove peer.p_pending seq;
    (* A lost demote means the local placer may still steer the
       aggregate to the VF after its VRF rules are gone. Keep replaying
       it (original seq) on every future contact until acked. *)
    (match p.p_directive with
    | Local_controller.Demote _ -> (
        match List.find_opt (fun u -> u.u_seq = seq) peer.unreconciled with
        | Some u -> u.u_inflight <- false
        | None ->
            peer.unreconciled <-
              { u_seq = seq; u_directive = p.p_directive; u_inflight = false }
              :: peer.unreconciled)
    | Local_controller.Offload _ -> ());
    Obs.Metrics.incr m_failures;
    peer.consecutive_failures <- peer.consecutive_failures + 1;
    Obs.Span.finish ~now:(Engine.now t.engine) p.p_span ~outcome:"failed";
    if peer.alive && peer.consecutive_failures >= t.config.Config.dead_peer_failures
    then mark_dead t peer;
    p.p_on_result `Failed
  end
  else begin
    p.p_attempt <- p.p_attempt + 1;
    Obs.Metrics.incr m_retries;
    if Obs.Trace.enabled () then
      Obs.Trace.emit ~now:(Engine.now t.engine)
        (Obs.Trace.Ctrl_retry
           { server = peer.peer_name; seq; attempt = p.p_attempt; span = p.p_span });
    transmit peer ~seq p.p_directive;
    arm_retry t peer ~seq p
  end

and mark_dead t peer =
  if peer.alive then begin
    peer.alive <- false;
    Obs.Metrics.incr m_peer_deaths;
    if Obs.Trace.enabled () then
      Obs.Trace.emit ~now:(Engine.now t.engine)
        (Obs.Trace.Peer_state { server = peer.peer_name; alive = false });
    (* Graceful degradation: with no controller acking on that server,
       hardware rules can no longer be trusted to match the placer
       state. Demote everything it owns back to software — slower, but
       never silently divergent. *)
    let mine =
      List.filter (fun os -> String.equal os.os_server peer.peer_name) t.offloaded
    in
    List.iter (fun os -> apply_demote t os ~reason:"peer_dead") mine
  end

and apply_demote t os ~reason =
  t.offloaded <- List.filter (fun x -> x != os) t.offloaded;
  Obs.Metrics.incr m_demotions;
  Obs.Metrics.incr
    (Obs.Metrics.labeled_counter fam_demotions
       (Netcore.Tenant.to_int os.os_tenant));
  Obs.Metrics.set_gauge m_offloaded_current
    (float_of_int (List.length t.offloaded));
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~now:(Engine.now t.engine)
      (Obs.Trace.Flow_demoted
         {
           pattern = os.os_pattern;
           tenant = os.os_tenant;
           vm_ip = os.os_vm_ip;
           server = os.os_server;
           reason;
         });
  (* Close the offload's spans: a still-pending install is cut short. *)
  let span_now = Engine.now t.engine in
  Obs.Span.finish ~now:span_now os.os_install_span ~outcome:"aborted";
  os.os_install_span <- Obs.Span.none;
  Obs.Span.finish ~now:span_now os.os_span ~outcome:reason;
  os.os_span <- Obs.Span.none;
  (* Break-after-make in reverse: the hardware rules survive until BOTH
     the grace period has passed (placer had time to redirect) AND the
     demote directive has resolved (acked, or retries exhausted). On a
     reliable channel the ack arrives at 2 x latency, well inside the
     grace period, so removal fires at exactly the grace instant — the
     same schedule as a build without the ack protocol. *)
  let vrf = Tor.Tor_switch.vrf t.tor os.os_tenant in
  (* Pin the handle now: the audit may re-handle [os] later, and the
     delayed removal must free exactly the entries installed here. *)
  let handle = os.os_handle in
  let mkey = (Netcore.Tenant.to_int os.os_tenant, handle) in
  Hashtbl.replace t.pending_removal mkey ();
  let grace_passed = ref false and resolved = ref false and removed = ref false in
  let try_remove () =
    if !grace_passed && !resolved && not !removed then begin
      removed := true;
      Hashtbl.remove t.pending_removal mkey;
      Hashtbl.remove t.managed mkey;
      Tor.Vrf.remove vrf handle
    end
  in
  (match peer_of t os.os_server with
  | Some peer ->
      send_directive t peer
        (Local_controller.Demote { vm_ip = os.os_vm_ip; pattern = os.os_pattern })
        ~on_result:(fun _ ->
          resolved := true;
          try_remove ())
  | None -> resolved := true);
  ignore
    (Engine.after t.engine (grace_before_vrf_removal t) (fun () ->
         grace_passed := true;
         try_remove ()))

(* Anti-flap: while a lane is down, candidates whose destinations ride
   it stay in software — re-promotion happens only once the lane has
   been continuously healthy for [lane_up_oks] probe intervals. *)
let covered_by_down_lane t pattern =
  match t.lanes with
  | [] -> false
  | lanes ->
      let dests =
        Option.value (Hashtbl.find_opt t.destinations pattern) ~default:[]
      in
      List.exists
        (fun lane ->
          (not lane.lane_up) && List.exists lane.lane_covers dests)
        lanes

let apply_offload t (c : Decision_engine.candidate) ~server =
  if covered_by_down_lane t c.Decision_engine.pattern then ()
  else
  match t.lookup_vm ~tenant:c.Decision_engine.tenant ~vm_ip:c.vm_ip with
  | None -> ()
  | Some (_, attached) -> (
      let policy = Vswitch.Ovs.vif_policy attached.Host.Server.vif in
      let destinations =
        Option.value (Hashtbl.find_opt t.destinations c.pattern) ~default:[]
      in
      match
        Rules.Rule_compiler.compile ~policy ~selection:c.pattern ~destinations
      with
      | Error _ -> ()  (* denied or unresolvable: never offload *)
      | Ok compiled -> (
          let vrf = Tor.Tor_switch.vrf t.tor c.tenant in
          match Tor.Vrf.install vrf compiled with
          | Error (`Tcam_full | `Install_fault) -> ()
          | Ok handle -> (
              let state =
                {
                  os_pattern = c.pattern;
                  os_tenant = c.tenant;
                  os_vm_ip = c.vm_ip;
                  os_server = server;
                  os_handle = handle;
                  os_compiled = compiled;
                  os_entries = compiled.Rules.Rule_compiler.tcam_entries;
                  os_created = Engine.now t.engine;
                  os_score = c.score;
                  os_span = Obs.Span.none;
                  os_install_span = Obs.Span.none;
                }
              in
              match peer_of t server with
              | None -> Tor.Vrf.remove vrf handle
              | Some peer ->
                  Hashtbl.replace t.managed
                    (Netcore.Tenant.to_int c.tenant, handle)
                    ();
                  t.offloaded <- state :: t.offloaded;
                  Obs.Metrics.incr m_promotions;
                  Obs.Metrics.incr
                    (Obs.Metrics.labeled_counter fam_promotions
                       (Netcore.Tenant.to_int c.tenant));
                  Obs.Metrics.set_gauge m_offloaded_current
                    (float_of_int (List.length t.offloaded));
                  Obs.Metrics.observe m_offload_score c.score;
                  if Obs.Trace.enabled () then begin
                    let now = Engine.now t.engine in
                    Obs.Trace.emit ~now
                      (Obs.Trace.Flow_promoted
                         {
                           pattern = c.pattern;
                           tenant = c.tenant;
                           vm_ip = c.vm_ip;
                           server;
                           score = c.score;
                           tcam_entries = state.os_entries;
                         });
                    state.os_span <-
                      Obs.Span.start ~now ~kind:"offload"
                        ~name:(Obs.Trace.pattern_to_string c.pattern)
                        ~track:"tor" ();
                    state.os_install_span <-
                      Obs.Span.start ~now ~parent:state.os_span ~kind:"install"
                        ~name:"install" ~track:"tor" ()
                  end;
                  (* Make-before-break: VRF rules are live before the
                     flow placer redirects the first packet. *)
                  send_directive t ~parent:state.os_install_span peer
                    (Local_controller.Offload { vm_ip = c.vm_ip; pattern = c.pattern })
                    ~on_result:(function
                      | `Acked ->
                          let now = Engine.now t.engine in
                          if Obs.Timeseries.enabled () then begin
                            let lat =
                              Simtime.span_to_us
                                (Simtime.diff now state.os_created)
                            in
                            Obs.Timeseries.observe ts_install lat;
                            Obs.Timeseries.observe
                              (Obs.Timeseries.series
                                 (Printf.sprintf "tenant.%d.install_latency_us"
                                    (Netcore.Tenant.to_int state.os_tenant)))
                              lat
                          end;
                          Obs.Span.finish ~now state.os_install_span
                            ~outcome:"installed";
                          state.os_install_span <- Obs.Span.none
                      | `Failed ->
                          Obs.Span.finish ~now:(Engine.now t.engine)
                            state.os_install_span ~outcome:"failed";
                          state.os_install_span <- Obs.Span.none;
                          (* Rollback: the placer never confirmed the
                             redirect, so reclaim the TCAM entries. The
                             demote below doubles as reconciliation in
                             case the offload DID land and only the
                             acks were lost. *)
                          if List.memq state t.offloaded then
                            apply_demote t state ~reason:"install_failed"))))

(* Contact bookkeeping: any uplink traffic from a peer proves its local
   controller is alive, resets the failure streak, and is an occasion
   to replay unreconciled demotes. *)
let note_contact t peer =
  peer.consecutive_failures <- 0;
  if not peer.alive then begin
    peer.alive <- true;
    if Obs.Trace.enabled () then
      Obs.Trace.emit ~now:(Engine.now t.engine)
        (Obs.Trace.Peer_state { server = peer.peer_name; alive = true })
  end;
  List.iter
    (fun u ->
      if not u.u_inflight then begin
        u.u_inflight <- true;
        (* Replays keep their original seq and are deliberately not
           re-announced or re-spanned; see send_directive. *)
        send_with_seq t peer ~seq:u.u_seq ~span:Obs.Span.none u.u_directive
          ~on_result:(fun _ -> ())
      end)
    peer.unreconciled

let handle_ack t ~server ~seq =
  match peer_of t server with
  | None -> ()
  | Some peer ->
      (match Hashtbl.find_opt peer.p_pending seq with
      | Some p ->
          (match p.p_timer with
          | Some h ->
              ignore (Engine.cancel t.engine h);
              p.p_timer <- None
          | None -> ());
          Hashtbl.remove peer.p_pending seq;
          peer.unreconciled <-
            List.filter (fun u -> u.u_seq <> seq) peer.unreconciled;
          let now = Engine.now t.engine in
          if Obs.Timeseries.enabled () then
            Obs.Timeseries.observe ts_rtt
              (Simtime.span_to_us (Simtime.diff now p.p_sent));
          Obs.Span.finish ~now p.p_span ~outcome:"acked";
          p.p_on_result `Acked
      | None ->
          (* Duplicate ack of something already resolved. *)
          peer.unreconciled <-
            List.filter (fun u -> u.u_seq <> seq) peer.unreconciled);
      note_contact t peer

(* A restarted local controller announces itself with empty soft state
   (its applied-seq table died with the process). Answer with the full
   offload intent for that server under fresh sequence numbers; every
   directive is idempotent on the receiving side, so re-pushing intent
   the dataplane already holds is harmless. *)
let handle_resync t ~server =
  match peer_of t server with
  | None -> ()
  | Some peer ->
      Obs.Metrics.incr m_resyncs;
      note_contact t peer;
      List.iter
        (fun os ->
          if String.equal os.os_server server then
            send_directive t peer
              (Local_controller.Offload
                 { vm_ip = os.os_vm_ip; pattern = os.os_pattern })
              ~on_result:(function
                | `Acked -> ()
                | `Failed ->
                    if List.memq os t.offloaded then
                      apply_demote t os ~reason:"resync_failed"))
        t.offloaded

(* Anti-entropy audit: reconcile actual TCAM contents against intent.
   Entries lost to soft errors are reinstalled (or, if the TCAM cannot
   take them back, the aggregate is demoted — software is slow but
   never wrong); live managed handles nothing vouches for are removed.
   Unmanaged handles (static experiment pins) are out of scope. *)
let audit_tcam t =
  Obs.Metrics.incr m_audit_sweeps;
  (* Pass 1: heal intent whose hardware entries vanished. Iterates the
     list value captured here; a failed repair demotes, which only
     reassigns [t.offloaded]. *)
  List.iter
    (fun os ->
      if List.memq os t.offloaded then begin
        let vrf = Tor.Tor_switch.vrf t.tor os.os_tenant in
        if not (Tor.Vrf.is_live vrf os.os_handle) then begin
          Hashtbl.remove t.managed
            (Netcore.Tenant.to_int os.os_tenant, os.os_handle);
          match Tor.Vrf.install vrf os.os_compiled with
          | Ok handle ->
              os.os_handle <- handle;
              Hashtbl.replace t.managed
                (Netcore.Tenant.to_int os.os_tenant, handle)
                ();
              Obs.Metrics.incr m_audit_reinstalls
          | Error (`Tcam_full | `Install_fault) ->
              apply_demote t os ~reason:"audit_unrepaired"
        end
      end)
    t.offloaded;
  (* Pass 2: remove orphans — managed live handles neither backed by
     intent nor awaiting a scheduled grace removal. *)
  Tor.Tor_switch.iter_vrfs t.tor (fun vrf ->
      let tenant = Netcore.Tenant.to_int (Tor.Vrf.tenant vrf) in
      List.iter
        (fun handle ->
          let key = (tenant, handle) in
          if
            Hashtbl.mem t.managed key
            && (not (Hashtbl.mem t.pending_removal key))
            && not
                 (List.exists
                    (fun os ->
                      Netcore.Tenant.to_int os.os_tenant = tenant
                      && os.os_handle = handle)
                    t.offloaded)
          then begin
            Hashtbl.remove t.managed key;
            Tor.Vrf.remove vrf handle;
            Obs.Metrics.incr m_audit_orphans
          end)
        (Tor.Vrf.live_handles vrf))

let receive_uplink t = function
  | Local_controller.Report (r : Local_controller.demand_report) ->
      Hashtbl.replace t.latest_reports r.Local_controller.server r.report;
      (match peer_of t r.Local_controller.server with
      | Some peer -> note_contact t peer
      | None -> ())
  | Local_controller.Ack { server; seq } -> handle_ack t ~server ~seq
  | Local_controller.Resync { server } -> handle_resync t ~server

(* Per-tenant pps over one control interval: combined vswitch + VF tx
   deltas per tenant, fed into dynamically named "tenant.<id>.pps"
   series. Runs once per interval (not per packet), so the string
   building and list walks here are off the hot path. *)
let sample_tenant_pps t ~dt =
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (tenant, n) ->
      Hashtbl.replace totals tenant
        (n + Option.value ~default:0 (Hashtbl.find_opt totals tenant)))
    (Obs.Metrics.labeled_counter_values fam_soft_tx
    @ Obs.Metrics.labeled_counter_values fam_hard_tx);
  Hashtbl.iter
    (fun tenant total ->
      let prev =
        Option.value ~default:0 (Hashtbl.find_opt t.ts_tenant_prev tenant)
      in
      Obs.Timeseries.observe
        (Obs.Timeseries.series (Printf.sprintf "tenant.%d.pps" tenant))
        (float_of_int (total - prev) /. dt);
      Hashtbl.replace t.ts_tenant_prev tenant total)
    totals

(* One timeseries sample per control interval: TCAM occupancy,
   per-path and per-tenant pps (counter deltas over the elapsed sim
   time), then a tick that snapshots every series' quantiles. *)
let sample_timeseries t =
  let now = Engine.now t.engine in
  Obs.Timeseries.observe ts_tcam
    (float_of_int (Tor.Tcam.used (Tor.Tor_switch.tcam t.tor)));
  let soft = Obs.Metrics.counter_value c_soft_tx in
  let hard = Obs.Metrics.counter_value c_hard_tx in
  (match t.ts_prev with
  | Some (prev_t, prev_soft, prev_hard) ->
      let dt = Simtime.span_to_sec (Simtime.diff now prev_t) in
      if dt > 0.0 then begin
        Obs.Timeseries.observe ts_soft_pps (float_of_int (soft - prev_soft) /. dt);
        Obs.Timeseries.observe ts_hard_pps (float_of_int (hard - prev_hard) /. dt);
        sample_tenant_pps t ~dt
      end
  | None -> ());
  t.ts_prev <- Some (now, soft, hard);
  Obs.Timeseries.tick ~now ()

let run_decision t =
  if Obs.Timeseries.enabled () then sample_timeseries t;
  let candidates_table, server_of = build_candidates t in
  let candidates = Hashtbl.fold (fun _ c acc -> c :: acc) candidates_table [] in
  let offloaded_for_decide =
    List.map
      (fun os ->
        ( os.os_pattern,
          {
            Decision_engine.pattern = os.os_pattern;
            tenant = os.os_tenant;
            vm_ip = os.os_vm_ip;
            score = os.os_score;
            tcam_entries = os.os_entries;
            group = t.group_of os.os_pattern;
          } ))
      t.offloaded
  in
  let decision =
    Decision_engine.decide ~scratch:t.decide_scratch ~candidates
      ~offloaded:offloaded_for_decide
      ~tcam_free:(Tor.Tcam.available (Tor.Tor_switch.tcam t.tor))
      ~max_offloads:t.config.Config.max_offloads
      ~min_score:t.config.Config.min_score ()
  in
  (* Demote first so the freed TCAM entries are real by the time the
     delayed removals land; installs were already budgeted by decide. *)
  List.iter
    (fun (c : Decision_engine.candidate) ->
      match
        List.find_opt
          (fun os -> Fkey.Pattern.equal os.os_pattern c.Decision_engine.pattern)
          t.offloaded
      with
      | Some os -> apply_demote t os ~reason:"deselected"
      | None -> ())
    decision.Decision_engine.demote;
  List.iter
    (fun (c : Decision_engine.candidate) ->
      match Hashtbl.find_opt server_of c.Decision_engine.pattern with
      | Some server -> apply_offload t c ~server
      | None -> ())
    decision.Decision_engine.offload

let start t =
  if not t.running then begin
    t.running <- true;
    Measurement_engine.start t.tor_me;
    let interval =
      Simtime.span_scale
        (float_of_int t.config.Config.epochs_per_interval)
        t.config.Config.epoch_period
    in
    (* Offset the decision tick slightly after the local controllers'
       reports for the same interval have been shipped and delivered. *)
    let offset =
      Simtime.span_add
        (Simtime.span_scale 4.0 t.config.Config.controller_latency)
        (Simtime.span_add t.config.Config.poll_gap (Simtime.span_ms 5.0))
    in
    Engine.every t.engine
      ~start:(Simtime.add (Engine.now t.engine) (Simtime.span_add interval offset))
      interval
      (fun () ->
        run_decision t;
        `Continue);
    match t.config.Config.tcam_audit_interval with
    | None -> ()
    | Some audit_interval ->
        Engine.every t.engine
          ~start:(Simtime.add (Engine.now t.engine) audit_interval)
          audit_interval
          (fun () ->
            audit_tcam t;
            `Continue)
  end

let offloaded_count t = List.length t.offloaded
let offloaded_patterns t = List.map (fun os -> os.os_pattern) t.offloaded

let peer_alive t ~server =
  Option.map (fun peer -> peer.alive) (peer_of t server)

let unacked_directives t =
  List.fold_left
    (fun acc (_, peer) ->
      acc + Hashtbl.length peer.p_pending + List.length peer.unreconciled)
    0 t.locals

let returned_of os =
  {
    rr_pattern = os.os_pattern;
    rr_tenant = os.os_tenant;
    rr_vm_ip = os.os_vm_ip;
    rr_server = os.os_server;
    rr_score = os.os_score;
  }

let demote_all_for_vm t ~vm_ip =
  let mine, _rest =
    List.partition (fun os -> Netcore.Ipv4.equal os.os_vm_ip vm_ip) t.offloaded
  in
  List.iter (fun os -> apply_demote t os ~reason:"vm_migration") mine;
  List.map returned_of mine

let reinstall t rules =
  List.iter
    (fun rr ->
      (* Skip aggregates the decision loop re-offloaded on its own in
         the meantime: reinstalling would double the TCAM entries. *)
      if
        not
          (List.exists
             (fun os -> Fkey.Pattern.equal os.os_pattern rr.rr_pattern)
             t.offloaded)
      then
        apply_offload t
          {
            Decision_engine.pattern = rr.rr_pattern;
            tenant = rr.rr_tenant;
            vm_ip = rr.rr_vm_ip;
            score = rr.rr_score;
            tcam_entries = 0;
            group = t.group_of rr.rr_pattern;
          }
          ~server:rr.rr_server)
    rules

(* --- Express-lane liveness and failover --- *)

let lane_covers_os t lane os =
  let dests =
    Option.value (Hashtbl.find_opt t.destinations os.os_pattern) ~default:[]
  in
  List.exists lane.lane_covers dests

let lane_fail t lane =
  lane.lane_up <- false;
  lane.lane_ok_streak <- 0;
  let now = Engine.now t.engine in
  lane.lane_down_since <- Some now;
  Obs.Metrics.incr m_lane_down;
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~now (Obs.Trace.Lane_state { lane = lane.lane_name; up = false });
  (* Failover: everything riding the lane goes back to the software
     path, which takes the default (VXLAN) uplink instead. Stash the
     demoted aggregates so heal can re-promote exactly them. *)
  let covered = List.filter (fun os -> lane_covers_os t lane os) t.offloaded in
  lane.lane_stash <- List.map returned_of covered @ lane.lane_stash;
  List.iter
    (fun os ->
      Obs.Metrics.incr m_failover_demotions;
      apply_demote t os ~reason:"lane_down")
    covered

let lane_heal t lane =
  lane.lane_up <- true;
  lane.lane_miss_streak <- 0;
  let now = Engine.now t.engine in
  Obs.Metrics.incr m_lane_up;
  (match lane.lane_down_since with
  | Some since ->
      Obs.Metrics.observe m_recovery_time
        (Simtime.span_to_sec (Simtime.diff now since))
  | None -> ());
  lane.lane_down_since <- None;
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~now (Obs.Trace.Lane_state { lane = lane.lane_name; up = true });
  let stash = lane.lane_stash in
  lane.lane_stash <- [];
  List.iter (fun _ -> Obs.Metrics.incr m_failover_repromotions) stash;
  reinstall t stash

let probe_tick t =
  List.iter
    (fun lane ->
      (* Judge the interval that just closed — except before the first
         probe has even been sent. *)
      if lane.lane_seq > 0 then begin
        if lane.lane_replies > 0 then begin
          lane.lane_miss_streak <- 0;
          lane.lane_ok_streak <- lane.lane_ok_streak + 1;
          if
            (not lane.lane_up)
            && lane.lane_ok_streak >= t.config.Config.lane_up_oks
          then lane_heal t lane
        end
        else begin
          lane.lane_ok_streak <- 0;
          lane.lane_miss_streak <- lane.lane_miss_streak + 1;
          if
            lane.lane_up
            && lane.lane_miss_streak >= t.config.Config.lane_down_misses
          then lane_fail t lane
        end;
        lane.lane_replies <- 0
      end;
      lane.lane_seq <- lane.lane_seq + 1;
      Tor.Tor_switch.send_lane_probe t.tor ~dst_tor_ip:lane.lane_remote
        ~seq:lane.lane_seq)
    t.lanes

let add_lane t ~name ~remote_tor ~covers =
  (match t.lanes with
  | [] ->
      Tor.Tor_switch.set_probe_sink t.tor (fun ~remote_tor ~seq:_ ->
          match
            List.find_opt
              (fun l -> Netcore.Ipv4.equal l.lane_remote remote_tor)
              t.lanes
          with
          | Some l -> l.lane_replies <- l.lane_replies + 1
          | None -> ())
  | _ :: _ -> ());
  t.lanes <-
    {
      lane_name = name;
      lane_remote = remote_tor;
      lane_covers = covers;
      lane_seq = 0;
      lane_replies = 0;
      lane_miss_streak = 0;
      lane_ok_streak = 0;
      lane_up = true;
      lane_down_since = None;
      lane_stash = [];
    }
    :: t.lanes;
  if not t.probing then begin
    t.probing <- true;
    Engine.every t.engine
      ~start:(Simtime.add (Engine.now t.engine) t.config.Config.probe_interval)
      t.config.Config.probe_interval
      (fun () ->
        probe_tick t;
        `Continue)
  end

let lane_is_up t ~name =
  Option.map
    (fun lane -> lane.lane_up)
    (List.find_opt (fun l -> String.equal l.lane_name name) t.lanes)
