(** The per-server FasTrak local controller (§4.3, Figure 8).

    Its measurement engine polls the server's OVS datapath for active
    flow statistics (a Python script against the OVS datapath in the
    paper's prototype, §5.2) and ships demand reports to the TOR
    controller each control interval. Its decision engine applies the
    TOR controller's directives, which arrive sequenced over a
    latency-bearing {!Fabric.Channel}: programming flow placers of
    co-located VMs ({!Host.Bonding}, the paper's OpenFlow interface)
    and re-adjusting the FPS rate limit split on each VM's VIF/VF
    interface pair. *)

(** A TOR controller decision concerning one aggregate of one resident
    VM, delivered over the directive channel. *)
type directive =
  | Offload of { vm_ip : Netcore.Ipv4.t; pattern : Netcore.Fkey.Pattern.t }
  | Demote of { vm_ip : Netcore.Ipv4.t; pattern : Netcore.Fkey.Pattern.t }

type sequenced = { seq : int; directive : directive }
(** A directive stamped with the TOR controller's per-rack sequence
    number. The channel may drop, duplicate or reorder sequenced
    directives; {!handle_sequenced} applies latest-seq-wins per
    aggregate and acks every delivery, so re-transmission is safe. *)

type demand_report = {
  server : string;
  report : Measurement_engine.report;
}
(** One control interval's measurements, tagged with the reporting
    server's name so the TOR controller can attribute them. *)

(** Everything a local controller sends up to the TOR controller on the
    report channel: periodic demand reports, directive acks, and the
    restart announcement that asks for a full intent resync. *)
type uplink =
  | Report of demand_report
  | Ack of { server : string; seq : int }
  | Resync of { server : string }

type t

val create :
  engine:Dcsim.Engine.t -> config:Config.t -> server:Host.Server.t -> t
(** Build the controller for one server, including its measurement
    engine over the server's OVS flow table. Call {!start} to begin
    polling. *)

val start : t -> unit
(** Start the measurement engine; every control interval the demand
    profiles update, FPS re-splits each VM's rate limit, and a report
    ships to the sink. Idempotent. *)

val set_uplink : t -> (uplink -> unit) -> unit
(** Where uplink traffic — control-interval reports and directive acks
    — goes (the TOR controller's report channel). *)

val handle_sequenced : t -> sequenced -> unit
(** Apply a sequenced directive from the (possibly lossy) channel. The
    directive is applied only if its [seq] exceeds the highest already
    applied for the same aggregate — so duplicates are no-ops and a
    reordered stale directive never overrides a newer decision — and an
    [Ack] is always sent on the uplink, even for stale deliveries. *)

val offloaded_patterns : t -> Netcore.Fkey.Pattern.t list
(** Aggregates this server's flow placers currently steer to the VF
    (i.e. directives applied, in arrival order, newest first). *)

val profile : t -> vm_ip:Netcore.Ipv4.t -> Demand_profile.t option
(** The demand profile accumulated for a resident VM. *)

val take_profile : t -> vm_ip:Netcore.Ipv4.t -> Demand_profile.t option
(** Detach and return a VM's demand profile — the prepare half of VM
    migration ("the profile is migrated along with the VM"). The
    profile is removed here; {!adopt_profile} re-installs it at the
    destination (commit) or back here (abort). *)

val adopt_profile : t -> Demand_profile.t -> unit
(** Install a migrated-in VM's profile (S4). Its entries age from now,
    on this controller's ME clock. *)

val aggregate_count : t -> int
(** Aggregates this controller's ME holds a history for
    ({!Measurement_engine.aggregate_count}). *)

val revalidate_vm_cache : t -> vm_ip:Netcore.Ipv4.t -> reason:string -> unit
(** Revalidate the datapath flow cache of the VM's VIF on this server
    (no-op if the VM is not resident). Called by the rule manager
    around VM migration stages so verdicts cached before the move are
    re-checked against the post-move rule state. *)

(** {2 Crash and recovery}

    A crash kills the controller process only. Dataplane state — flow
    placer rules, blocked flows, FPS rate limits — lives in the
    kernel/NIC and keeps working while the process is down; directives
    arriving meanwhile are silently dropped (no acks), so the TOR
    controller's retry/dead-peer machinery reacts exactly as it would
    to a real dead process. *)

type snapshot
(** A persisted checkpoint of the controller's offload intent, as
    written to stable storage before the crash. May be stale relative
    to the dataplane. *)

val snapshot : t -> snapshot
(** Checkpoint the current intent (the set of applied offloads). *)

val crash : t -> unit
(** Kill the process: stop the measurement engine and discard all soft
    state. Idempotent. *)

val crashed : t -> bool

val restart : t -> snapshot:snapshot -> unit
(** Bring the process back from [snapshot]: re-adopt snapshot entries
    whose placer rule survived in the dataplane, remove orphan VF
    redirect rules the snapshot does not vouch for, unblock flows whose
    offload no longer exists (a stale block would blackhole the
    software path), restart measurement, and send [Resync] on the
    uplink so the TOR controller re-pushes its authoritative intent.
    No-op unless crashed. *)
