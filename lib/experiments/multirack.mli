(** The sharded multi-rack fabric shared by {!Dcscale}, {!Soak} and
    {!Fabric_chaos}.

    Each rack is a §5.1 {!Testbed} on its own {!Dcsim.Engine} shard;
    an aggregation {!Fabric.Core_switch} on a further shard joins them.
    Rack <-> core traffic rides latency-bearing {!Fabric.Channel}s
    registered with one {!Dcsim.Cluster}, which advances every shard
    under its conservative-lookahead scheduler (see [docs/ENGINE.md]).

    Callers keep what differs between experiments (VM placement, rule
    managers, extra uplinks) and build each rack in the same order:
    {!testbed}, VMs and tunnels, {!uplink}s, {!attach}, then the
    rule manager; {!connect_peers} once every rack is up. *)

type t = {
  cluster : Dcsim.Cluster.t;
  core : Fabric.Core_switch.t;
  engines : Dcsim.Engine.t array;  (** Rack [r]'s engine. *)
  prefix : string;  (** Rack [r]'s names start ["<prefix><r>."]. *)
}

val create :
  ?sharded:bool -> seed:int -> racks:int -> prefix:string -> unit -> t
(** The shard layout and the core switch. Sharded (the default), rack
    [r] runs on an engine seeded [seed + r] and the core on one seeded
    [seed + racks + 1]. With one rack, or [sharded = false], every rack
    and the core share a single engine seeded [seed], and the cluster
    degenerates to the plain event loop with an identical schedule. *)

val testbed :
  t ->
  ?config:Compute.Cost_params.vswitch_config ->
  int ->
  servers:int ->
  Testbed.t
(** Rack [r]'s testbed on its engine: rack index [r] in the address
    plan, [servers] servers, names prefixed ["<prefix><r>."]. *)

val uplink :
  t ->
  ?faults:Faults.Injector.t ->
  ?copy:(Netcore.Packet.t -> Netcore.Packet.t) ->
  int ->
  string ->
  Netcore.Packet.t Fabric.Channel.t
(** [uplink t r name]: a rack [r] -> core channel named
    ["<prefix><r>.<name>"] delivering into the core switch after the
    2 µs fabric hop. [faults] and [copy] are {!Fabric.Channel.create}'s. *)

val attach : t -> int -> Testbed.t -> unit
(** Route the core to rack [r]: a core -> rack downlink into the
    rack's ToR, {!Fabric.Core_switch.attach_rack} for its loopback and
    {!Fabric.Core_switch.register_server} for each of its servers. *)

val connect_peers : (Testbed.t * Netcore.Packet.t Fabric.Channel.t) array -> unit
(** The ToR peer mesh: each rack reaches every other rack's ToR through
    its given uplink, and the core routes on the outer GRE header. *)
