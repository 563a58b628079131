(** A guest virtual machine.

    Owns two CPU pools: a serialized kernel context (softirq/stack work
    — the per-VM bottleneck on the SR-IOV path) and the remaining vCPUs
    for application service time. Applications on the VM register
    packet handlers; [send]/[deliver] charge the guest-side stack costs
    around the flow placer and the NIC paths. *)

type t

val create :
  engine:Dcsim.Engine.t ->
  name:string ->
  vcpus:int ->
  tenant:Netcore.Tenant.id ->
  ip:Netcore.Ipv4.t ->
  mac:Netcore.Mac.t ->
  t
(** [vcpus] must be >= 2: one is the serialized kernel context, the
    rest serve applications (mirrors the paper's "three netperf threads
    pinned to three of four logical CPUs, leaving the last for the VM
    kernel"). *)

val name : t -> string
val engine : t -> Dcsim.Engine.t
val tenant : t -> Netcore.Tenant.id
val ip : t -> Netcore.Ipv4.t
val mac : t -> Netcore.Mac.t
val kernel : t -> Compute.Cpu_pool.t
val apps : t -> Compute.Cpu_pool.t

val set_transmit : t -> (Netcore.Packet.t -> unit) -> unit
(** Wire the egress (normally the bonding flow placer). *)

val send : t -> Netcore.Packet.t -> unit
(** Application transmit: serialized guest kernel cost, then egress. *)

val deliver : t -> Netcore.Packet.t -> unit
(** Packet arriving from a VIF or VF: serialized guest kernel cost plus
    an exponential scheduler-wakeup jitter, then handler dispatch. *)

val register_flow_handler : t -> Netcore.Fkey.t -> (Netcore.Packet.t -> unit) -> unit
(** Exact-match delivery (connection sockets). *)

val register_listener : t -> port:int -> (Netcore.Packet.t -> unit) -> unit
(** Port-level delivery for packets with no exact handler (server
    listening sockets). *)

val cpus_used : t -> over:Dcsim.Simtime.span -> float
val reset_cpu_accounting : t -> unit
