(** The per-rack TOR controller (§4.3, Figures 8–9).

    Receives demand reports from the local controllers of directly
    attached servers, runs its own measurement engine over the flows
    already offloaded to the ToR, and each control interval ranks all
    candidates by S = n x m_pps x c, offloading the winners (installing
    their compiled rules in the tenant VRFs, subject to TCAM capacity)
    and demoting losers back to software. Distribution: each TOR
    controller only ever reasons about its own rack (§4.3.3). *)

type t

val create :
  engine:Dcsim.Engine.t ->
  config:Config.t ->
  tor:Tor.Tor_switch.t ->
  lookup_vm:
    (tenant:Netcore.Tenant.id ->
    vm_ip:Netcore.Ipv4.t ->
    (Host.Server.t * Host.Server.attached) option) ->
  t
(** Build the controller for [tor], including its measurement engine
    over the ToR's hardware flow counters. [lookup_vm] resolves a VM to
    its hosting server (needed to compile offload rules against the
    VM's policy). *)

val register_local :
  t ->
  name:string ->
  directive_channel:Local_controller.sequenced Fabric.Channel.t ->
  unit
(** Wire the downlink to a local controller: a one-engine
    {!Fabric.Channel} whose handler is
    {!Local_controller.handle_sequenced}. Directives sent on it are
    sequence-numbered and retransmitted with exponential backoff until
    acked (or {!Config.directive_attempts} transmissions fail). The
    uplink is the channel the rule manager creates whose handler is
    {!receive_uplink}. *)

val receive_uplink : t -> Local_controller.uplink -> unit
(** Ingest one message from a server's uplink channel. A [Report]
    replaces that server's previous report (the next decision tick
    reads the latest from every server); an [Ack] resolves a pending
    directive; a [Resync] (restarted local controller) re-sends the
    full offload intent for that server under fresh sequence numbers.
    Every kind counts as proof of life for the dead-peer detector and
    triggers replay of unreconciled demotes. *)

val start : t -> unit
(** Start the TOR ME, the per-control-interval decision loop, and —
    when {!Config.t.tcam_audit_interval} is set — the anti-entropy
    audit sweep. *)

(** {2 Express-lane failure domains}

    Each {!add_lane} registers one express lane towards a peer ToR.
    The controller probes every lane each {!Config.probe_interval}
    (BFD-style, over the same GRE path as offloaded traffic). After
    {!Config.lane_down_misses} silent intervals the lane is declared
    down: every offloaded aggregate whose destinations ride it is
    demoted to the software path (which routes over the default VXLAN
    uplink instead), and new offloads towards it are suppressed. After
    {!Config.lane_up_oks} consecutive replying intervals the lane
    heals and the demoted aggregates are re-promoted — the two-sided
    hysteresis keeps a marginal lane from flapping flows between
    paths. *)

val add_lane :
  t ->
  name:string ->
  remote_tor:Netcore.Ipv4.t ->
  covers:(Netcore.Ipv4.t -> bool) ->
  unit
(** Register an express lane towards the peer ToR at [remote_tor];
    [covers] says which destination VM addresses ride it. The first
    registration starts the probe loop and claims the ToR's probe
    sink. *)

val lane_is_up : t -> name:string -> bool option
(** The prober's current verdict on a lane ([None] if unknown). *)

val audit_tcam : t -> unit
(** Run one anti-entropy sweep now: reinstall intent whose TCAM
    entries were lost (demoting to software if the TCAM refuses them),
    and remove orphaned managed entries no intent vouches for.
    Entries installed outside this controller (static pins) are never
    touched. Normally driven by {!Config.t.tcam_audit_interval};
    exposed for tests and tooling. *)

val offloaded_count : t -> int
(** Aggregates whose rules are currently installed in the ToR. *)

val offloaded_patterns : t -> Netcore.Fkey.Pattern.t list
(** The installed aggregates' patterns, newest offload first. *)

val destinations : t -> Netcore.Fkey.Pattern.t -> Netcore.Ipv4.t list
(** The destinations an aggregate's offload rule tunnels to: those its
    reports have carried, newest first, at most 16. Unlike the MEs'
    records, they are never expired. *)

val peer_alive : t -> server:string -> bool option
(** The dead-peer detector's current verdict on a server's local
    controller ([None] if the server is unknown). A peer is declared
    dead after {!Config.t.dead_peer_failures} consecutive failed
    directives, demoting all its offloaded flows; any uplink contact
    revives it. *)

val unacked_directives : t -> int
(** Directives not yet confirmed by their local controller: pending
    (in retry) plus unreconciled (exhausted demotes awaiting replay).
    Zero once the control plane has converged. *)

type returned_rule
(** An offloaded aggregate that was returned to the hypervisor by
    {!demote_all_for_vm}, with everything needed to re-install it. *)

val demote_all_for_vm : t -> vm_ip:Netcore.Ipv4.t -> returned_rule list
(** Return every offloaded rule of one VM to its hypervisor — the
    pre-VM-migration step (§4.1.2) — and describe what was returned so
    an aborted migration can re-install it via {!reinstall}. *)

val reinstall : t -> returned_rule list -> unit
(** Re-offload aggregates previously returned by {!demote_all_for_vm}
    (the VM-migration abort path). Aggregates the decision loop already
    re-offloaded by itself are skipped. *)
