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
  servers_per_rack : int;
  duration : float;  (** Simulated seconds. *)
  sharded : bool;  (** One engine per rack + core, or one engine total. *)
  migrate : bool;  (** Run the rack-0 -> rack-1 VM migration. *)
  express_messages : int;  (** Messages per express-lane stream. *)
  soft_messages : int;  (** Messages per rack-local software stream. *)
  message_size : int;  (** Bytes per message. *)
  seed : int;
}

val default_config : config
(** 16 racks x 2 servers, 0.5 s, sharded, with migration; 256 express
    and 64 soft messages of 4096 B; seed 42. *)

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
          or ["skipped"]. *)
  cpu_s : float;  (** Host CPU seconds for the run. *)
  events_per_sec : float;  (** [events / cpu_s]. *)
}

val pin_direction :
  src_tb:Testbed.t ->
  dst_tb:Testbed.t ->
  Host.Server.attached ->
  Host.Server.attached ->
  unit
(** Statically pin the a -> b direction of a cross-rack express lane:
    GRE tunnel mapping in a's policy, the compiled most-specific rule
    in both ToR VRFs, the flow-placer rule steering a's traffic for b
    onto the VF, and b's address on the destination ToR pointed at the
    SR-IOV port. Shared with {!Soak}, which pins the same lanes under
    production-shaped load.
    @raise Invalid_argument if b is not placed in [dst_tb] or a TCAM
    fills. *)

val run : ?config:config -> unit -> result
(** Build the datacenter and run it for [duration] simulated seconds.
    @raise Invalid_argument on a config outside the address plan. *)

val print_comparison : sharded:result -> single:result -> unit
(** Both layouts side by side, with a warning if the delivered byte
    counts diverge. *)
