(** fabric-chaos: the data-plane failure-domain experiment.

    A ring of racks on the sharded cluster engine, each streaming
    open-loop to the next rack's receiver. Unlike {!Dcscale}, nothing
    on the transmit side is pinned: the per-rack FasTrak controllers
    promote the streams onto the GRE express lanes themselves, so the
    full failover loop is exercised — BFD-style lane probes detect the
    schedule's mid-run express-uplink outage, covered aggregates demote
    to the VXLAN software path over a reliable uplink, and heal-side
    hysteresis re-promotes them. The same schedule's TCAM dimensions
    arm probabilistic install faults and soft-error evictions, which
    the anti-entropy audit repairs; a scripted local-controller crash
    and snapshot restart exercises recovery and resync.

    Run under [--monitors strict] this doubles as the no-blackhole
    check: the streams keep offering load throughout, so a flow parked
    on a dead path would trip the [no_blackhole] monitor. *)

type config = {
  racks : int;  (** Ring size, 2..84. *)
  duration : float;  (** Seconds under load. *)
  drain : float;  (** Quiesce time after stopping the streams. *)
  crash_at : float;
      (** When to crash rack 0's sender-side local controller
          (seconds; outside [(0, duration)] disables the script). *)
  restart_at : float;  (** When to restart it from its snapshot. *)
  seed : int;
}
(** Every rack has 2 servers, and each lane's stream offers 4096 B
    messages paced at 40 Mbit/s. *)

val default_config : config
(** 4 racks, 3 s + 1 s drain, crash at 2.0 s / restart at 2.3 s, seed
    42. *)

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
  crash_flight : (Dcsim.Simtime.t * Obs.Trace.event) list option;
      (** The flight recorder's ring ({!Obs.Flight.events}) at the
          instant of the scripted crash — the black-box record of what
          led up to the failure. [None] unless a recorder was installed
          and the crash fired. *)
  crash_dump : string option;
      (** Where the crash hook wrote that ring as JSONL: the recorder's
          dump path tagged ["crash"] ({!Obs.Flight.dump_installed}), so
          the end-of-run dump does not overwrite it. [None] without a
          dump path. *)
  reconciled : bool;
      (** Every rack's views agree ({!Fastrak.Rule_manager.views_reconciled})
          once the drain is over and any directive still in flight has
          landed ({!Fastrak.Rule_manager.settle}). *)
}

val run : ?schedule:string -> ?config:config -> unit -> result
(** [schedule] is the fault schedule: a profile name or a raw
    [key=value] spec ({!Faults.Schedule.profile}; the CLI's
    [--faults]). Default ["fabric"]. Its channel dimensions hit the
    express uplinks; its TCAM dimensions go to each rack's rule
    manager.
    @raise Invalid_argument on a bad schedule or a config outside the
    address plan. *)

val print : result -> unit
