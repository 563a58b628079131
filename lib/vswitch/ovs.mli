(** The hypervisor virtual switch (Open vSwitch model, §2.2).

    Structure follows OVS 1.9: a kernel datapath with a two-tier flow
    cache (exact-match tier in front of wildcard megaflows, see
    {!Flow_cache}), a userspace slow path consulted on cache misses
    (the "upcall"), per-VIF vhost service threads (the serialized
    per-packet resource) that drain their queues in batches with one
    classification per distinct flow per wakeup, shared softirq work on
    the host kernel CPU pool, optional VXLAN tunneling and optional
    tc-htb rate limiting per VIF. A revalidator sweep driven from the
    engine clock keeps cached verdicts coherent with the live policy.

    The four microbenchmark configurations of §3 are expressed through
    {!Compute.Cost_params.vswitch_config}: baseline, +security rules,
    +tunneling, +rate limiting (and compositions). *)

type t

val create :
  engine:Dcsim.Engine.t ->
  config:Compute.Cost_params.vswitch_config ->
  host_pool:Compute.Cpu_pool.t ->
  server_ip:Netcore.Ipv4.t ->
  transmit:(Netcore.Packet.t -> unit) ->
  t
(** [transmit] hands fully-processed packets to the physical NIC /
    link. [host_pool] is the shared kernel CPU pool of the server.
    Each VIF's datapath cache is sized by {!Flow_cache.default_config}
    as it reads when the vswitch is created. *)

(** {2 VIFs} *)

type vif

val add_vif :
  t ->
  policy:Rules.Policy.t ->
  deliver:(Netcore.Packet.t -> unit) ->
  vif
(** [deliver] hands received packets up into the guest (the guest-side
    receive cost is charged by the VM, not here). The VIF's transmit
    shaper starts at the policy's tx limit and FPS re-adjusts it via
    {!set_vif_tx_limit}; receive is not rate-limited. *)

val vif_policy : vif -> Rules.Policy.t

val vif_cache : vif -> Flow_cache.t
(** The VIF's datapath flow cache (occupancy/hit introspection). *)

val set_vif_tx_limit : vif -> Rules.Rate_limit_spec.t -> unit
(** Also revalidates the VIF's flow cache (reason ["fps_resplit"]):
    rate changes alter no verdict, so entries are re-checked rather
    than flushed. *)

val vif_tx_limit : vif -> Rules.Rate_limit_spec.t
val vif_tx_backlogged_seconds : vif -> float
(** Time the VIF's tx shaper was backlogged — FPS's "maxed out" signal. *)

val vif_tx_bytes : vif -> int
(** Cumulative bytes forwarded by the tx shaper (software-path demand). *)

val vif_vhost_pool : vif -> Compute.Cpu_pool.t
(** The VIF's vhost service thread, for CPU accounting. *)

(** {2 Datapath} *)

val transmit_from_vif : t -> vif -> Netcore.Packet.t -> unit
(** Entry point for guest transmissions arriving on the VIF. *)

val receive_from_nic : t -> Netcore.Packet.t -> unit
(** Entry point for packets arriving from the wire (VXLAN-encapsulated
    when tunneling is configured, plain otherwise). Routed to the
    destination VIF by the inner (tenant, dst ip). *)

(** {2 Flow management (FasTrak hooks)} *)

val active_flows : t -> (Netcore.Fkey.t * int * int) list
(** Cumulative (packets, bytes) per exact flow observed by the
    datapath, tx and rx merged — what the local ME polls. *)

val set_flow_blocked : t -> Netcore.Fkey.t -> bool -> unit
(** While blocked, packets of this flow surfacing anywhere in the
    vswitch pipeline are dropped — models the transient loss of
    in-flight packets when a flow's rules migrate to hardware
    (§6.2.2). Both block and unblock invalidate the flow's entries in
    every VIF cache so the change takes effect on the next packet. *)

val blocked_flows : t -> Netcore.Fkey.t list
(** Every currently blocked exact flow, in no particular order. A
    restarted local controller sweeps these to unblock flows whose
    offload no longer exists (a stale block would blackhole the
    software path). *)

(** {2 Counters} *)

val packets_sent : t -> int
val packets_dropped : t -> int
val security_drops : t -> int
val upcalls : t -> int
val kernel_hits : t -> int
