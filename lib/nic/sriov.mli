(** An SR-IOV capable 10 GbE NIC port (§2.2).

    The physical function is partitioned into virtual functions (VFs),
    each assignable to one VM. Transmit: the VF tags the packet with
    the VM's tenant VLAN (configured by FasTrak, §4.2.1), applies the
    hardware rate limiter (unlimited until {!set_vf_tx_limit}), and
    DMAs to the wire — no hypervisor involvement. Receive: the NIC steers by
    (VLAN, destination IP) to the right VF, with no rate limit; the
    hypervisor's only work is interrupt isolation, charged to the host
    pool at a fixed small cost. *)

type t
type vf

val create :
  engine:Dcsim.Engine.t ->
  ?max_vfs:int ->
  host_pool:Compute.Cpu_pool.t ->
  wire:Fabric.Link.t ->
  unit ->
  t
(** [wire] is the egress link toward the ToR. [max_vfs] defaults to 64
    (typical VF limit per port). *)

val allocate_vf :
  t ->
  mac:Netcore.Mac.t ->
  vlan:int ->
  tenant:Netcore.Tenant.id ->
  vm_ip:Netcore.Ipv4.t ->
  deliver:(Netcore.Packet.t -> unit) ->
  (vf, [ `No_vfs_left ]) result
(** [deliver] receives steered packets after the host interrupt charge;
    guest-side receive cost is the VM's business. *)

val vf_count : t -> int

val set_vf_tx_limit : vf -> Rules.Rate_limit_spec.t -> unit
val vf_tx_limit : vf -> Rules.Rate_limit_spec.t
val vf_tx_backlogged_seconds : vf -> float
val vf_tx_bytes : vf -> int
(** Cumulative bytes through the VF tx shaper (hardware-path demand). *)

val transmit_from_vf : vf -> Netcore.Packet.t -> unit
(** Guest transmit entry: VLAN tag + hardware shaping + wire. The small
    VF DMA cost is charged by the VM before calling this. *)

val receive_from_wire : t -> Netcore.Packet.t -> unit
(** Steer a VLAN-tagged packet to a VF by (vlan, destination VM ip);
    unmatched packets are dropped. *)

val packets_dropped : t -> int
