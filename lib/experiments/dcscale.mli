(** Multi-rack datacenter scale-out on the sharded engine.

    Builds [racks] copies of the §5.1 testbed rack, each on its own
    {!Dcsim.Engine} shard, joined by an aggregation core on a further
    shard; all rack <-> core traffic and the migration control messages
    ride latency-bearing [Fabric.Channel]s, and the whole datacenter
    advances under the {!Dcsim.Cluster} conservative-lookahead
    scheduler (see [docs/ENGINE.md]).

    The workload exercises all three planes: a ring of cross-rack
    express lanes (rack r's sender VM streams to rack r+1's receiver
    over statically pinned SR-IOV/ToR/GRE hardware paths, through the
    core), rack-local software-path streams through each vswitch, and —
    halfway through — an inter-rack VM migration through the two-phase
    protocol, shipping the detached demand profile to the destination
    rack and committing on its ack.

    With [sharded = false] (or one rack) the identical topology is
    built on a single engine and the run degenerates to the plain event
    loop — the bytes delivered must match the sharded run, which the
    engine tests assert. *)

type config = {
  racks : int;  (** Racks, 1–84 (bounded by the address plan). *)
  duration : float;  (** Simulated seconds. *)
  sharded : bool;  (** One engine per rack + core, or one engine total. *)
  express_messages : int;  (** Messages per express-lane stream. *)
  soft_messages : int;  (** Messages per rack-local software stream. *)
  message_size : int;  (** Bytes per message. *)
}
(** Every rack has 2 servers, the engines are seeded with 42, and any
    run of two or more racks migrates a VM from rack 0 to rack 1. *)

val default_config : config
(** 16 racks, 0.5 s, sharded; 256 express and 64 soft messages of
    4096 B. *)

type result = {
  cfg : config;
  shard_count : int;
  windows : int;  (** Lockstep windows the cluster ran. *)
  lookahead_us : float;  (** Window length (min channel latency). *)
  events : int;  (** Total events across all shards. *)
  express_bytes : int;  (** Acked bytes summed over express streams. *)
  soft_bytes : int;  (** Acked bytes summed over software streams. *)
  core_routed : int;
  core_dropped : int;
  tor_no_route_drops : int;
  acl_drops : int;
  migration_outcome : string;
      (** ["committed"], ["aborted"], ["preparing"], ["not-started"],
          or ["skipped"] (one rack). *)
  cpu_s : float;  (** Host CPU seconds for the run. *)
  events_per_sec : float;  (** [events / cpu_s]. *)
}

val pin_receive :
  dst_tb:Testbed.t ->
  Host.Server.attached ->
  Host.Server.attached ->
  Tor.Vrf.t * Rules.Rule_compiler.compiled * Tor.Vrf.handle
(** The receive half of the a -> b direction of an express lane: the
    GRE tunnel mapping for b in a's policy, a {!Testbed.pin} of a's
    traffic for b in [dst_tb]'s ToR, and b's address on that ToR
    pointed at the SR-IOV port. Returns the pin.
    @raise Invalid_argument if b is not placed in [dst_tb] or the pin
    fails. *)

val pin_direction :
  src_tb:Testbed.t ->
  dst_tb:Testbed.t ->
  Host.Server.attached ->
  Host.Server.attached ->
  unit
(** Statically pin the a -> b direction of a cross-rack express lane:
    {!pin_receive}, the same pin in the source ToR's VRF, and the
    flow-placer rule steering a's traffic for b onto the VF. Shared
    with {!Soak}, which pins the same lanes under production-shaped
    load.
    @raise Invalid_argument if b is not placed in [dst_tb] or a pin
    fails. *)

val run : ?config:config -> unit -> result
(** Build the datacenter and run it for [duration] simulated seconds.
    @raise Invalid_argument on a config outside the address plan. *)

val print_comparison : sharded:result -> single:result -> unit
(** Both layouts side by side, with a warning if the delivered byte
    counts diverge. *)
