(** The FasTrak rule manager: the distributed system of one local
    controller per server plus one TOR controller per rack (§4.3,
    Figure 9), wired over latency-bearing control channels.

    Manages hardware and hypervisor rules as a unified set: measures
    demand, offloads the highest-S flows into ToR VRFs + flow placers,
    demotes cold flows, splits rate limits with FPS, and returns all of
    a VM's offloaded rules to its hypervisor before VM migration. *)

type t

val create :
  engine:Dcsim.Engine.t ->
  config:Config.t ->
  tor:Tor.Tor_switch.t ->
  servers:Host.Server.t list ->
  ?faults:Faults.Schedule.t ->
  unit ->
  t
(** Build the whole control plane for one rack: a local controller per
    server in [servers], the TOR controller, and the latency-bearing
    report/directive channels between them. Every aggregate is ranked
    by S = n x m_pps x c with c = 1 ({!Scoring.score}).

    [faults], when its channel dimensions are armed
    ({!Faults.Schedule.has_channel_faults}), puts every control channel
    in unreliable mode with its own decorrelated RNG stream (split from
    the engine's RNG). The sequence-numbered ack/retry protocol between
    the controllers then keeps the TOR-side and server-side rule views
    convergent despite drops, duplicates and reordering. When its TCAM
    dimensions are armed ({!Faults.Schedule.has_tcam_faults}), VRF
    installs fail with probability [tcam_install_fail] and a 100 ms
    sweep soft-errors (silently evicts) each tenant's installed entries
    with probability [tcam_soft_error] — divergence only the
    anti-entropy audit ({!Config.t.tcam_audit_interval}) can repair.
    Omitted or all-zero, everything is reliable and the run is
    byte-identical to a fault-free build. *)

val start : t -> unit
(** Start every local controller and the TOR decision loop. *)

val tor_controller : t -> Tor_controller.t
(** The rack's TOR controller. *)

val local_controller : t -> server:string -> Local_controller.t option
(** The local controller managing [server], if that name exists. *)

val offloaded_count : t -> int
(** Number of aggregates currently offloaded rack-wide (the TOR
    controller's count). *)

val server_offloaded_patterns : t -> Netcore.Fkey.Pattern.t list
(** The server-side view: every pattern the rack's local controllers
    hold offloaded, concatenated in server order. *)

val views_reconciled : t -> bool
(** The TOR controller's offloaded patterns equal, as a set,
    {!server_offloaded_patterns}. While a directive is in flight this
    can read a transient disagreement; {!settle} first. *)

val settle : t list -> advance:(Dcsim.Simtime.span -> unit) -> unit
(** While any rule manager has an unacked directive
    ({!Tor_controller.unacked_directives}), run the simulation 1 ms
    further by calling [advance] with that step. Gives up after one
    directive's full retry schedule, {!Config.directive_timeout} x
    (2^{!Config.directive_attempts} - 1) = 775 ms. *)

(** {1 Two-phase VM migration}

    Migration is prepare/commit with an explicit abort path. Prepare
    (§4.1.2) returns every offloaded flow of the VM to its hypervisor
    and detaches the demand profile that "is migrated along with the
    VM"; commit adopts the profile at the destination. A migration left
    unconfirmed for {!Config.t.migration_timeout} aborts automatically:
    the profile returns to the source local controller and the returned
    rules are re-installed, so no demand history is ever lost to a
    failed migration. *)

type migration
(** An in-flight migration token, from {!begin_vm_migration} until
    commit or abort. *)

type migration_state = [ `Preparing | `Committed | `Aborted ]

val begin_vm_migration :
  t -> tenant:Netcore.Tenant.id -> vm_ip:Netcore.Ipv4.t -> migration
(** Phase one: demote the VM's offloaded flows, detach its profile, and
    arm the abort timer. *)

val commit_vm_migration : t -> migration -> new_server:string -> bool
(** Phase two: adopt the profile at [new_server]'s local controller so
    the TOR controller can re-offload immediately. Returns [false] —
    and changes nothing — if the migration already aborted (or was
    committed before).
    @raise Invalid_argument if [new_server] is unknown. *)

val adopt_vm_profile :
  t ->
  server:string ->
  vm_ip:Netcore.Ipv4.t ->
  profile:Demand_profile.t ->
  unit
(** Destination half of a {e cross-rack} migration: adopt a demand
    profile shipped from another rack's rule manager at [server]'s
    local controller and revalidate the VM's cached verdicts. The
    source side stays in [`Preparing] until
    {!commit_vm_migration_remote}.
    @raise Invalid_argument if [server] is unknown. *)

val commit_vm_migration_remote : t -> migration -> bool
(** Source half of a cross-rack commit: mark the migration committed
    once the destination rack has acked {!adopt_vm_profile} — the
    profile has already left this rack, so nothing is adopted locally.
    Returns [false] — and changes nothing — if the migration already
    aborted (the ack lost the race against the prepare timeout; the
    rules are back home and the destination's adopted profile is a
    harmless duplicate of demand history). *)

val migration_state : migration -> migration_state
val migration_profile : migration -> Demand_profile.t option
(** The detached demand profile riding the migration, for tests and
    experiments. *)
