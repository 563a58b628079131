(** A physical server: host kernel CPU pool, the vswitch (OVS), an
    SR-IOV capable NIC, the uplinks to the ToR, and resident VMs with
    their bonded interfaces.

    Mirrors the testbed of §5.1: one 10 GbE port owned by OVS, a second
    10 GbE port partitioned into SR-IOV VFs, both attached to the same
    ToR. *)

type t

val create :
  engine:Dcsim.Engine.t ->
  name:string ->
  ip:Netcore.Ipv4.t ->
  config:Compute.Cost_params.vswitch_config ->
  tor:Tor.Tor_switch.t ->
  t
(** Creates the uplink/downlink pairs and registers with the ToR. *)

val name : t -> string
val ip : t -> Netcore.Ipv4.t
val ovs : t -> Vswitch.Ovs.t
val host_pool : t -> Compute.Cpu_pool.t

type attached = {
  vm : Vm.t;
  vif : Vswitch.Ovs.vif;
  vf : Nic.Sriov.vf;
  bonding : Bonding.t;
}

val add_vm : t -> vm:Vm.t -> policy:Rules.Policy.t -> attached
(** Attach a VM: create its VIF and its VF, bond the two behind one
    flow placer (default path VIF, §4.1.1) and register the VM's
    location with the ToR. The VF is tagged with the VM's tenant VLAN.
    @raise Invalid_argument if the NIC has no VF left. *)

val vms : t -> attached list

val find_attached : t -> vm_ip:Netcore.Ipv4.t -> attached option

val host_cpus_used : t -> over:Dcsim.Simtime.span -> float
(** Host-side CPU: shared kernel pool plus every VIF's vhost thread. *)

val total_cpus_used : t -> over:Dcsim.Simtime.span -> float
(** Host-side plus all resident guests — the "# of CPUs for test"
    column of Tables 1–4. *)

val reset_cpu_accounting : t -> unit
