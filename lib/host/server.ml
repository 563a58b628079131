module Cost = Compute.Cost_params

type attached = {
  vm : Vm.t;
  vif : Vswitch.Ovs.vif;
  vf : Nic.Sriov.vf;
  bonding : Bonding.t;
}

type t = {
  server_name : string;
  ip : Netcore.Ipv4.t;
  host_pool : Compute.Cpu_pool.t;
  ovs : Vswitch.Ovs.t;
  sriov : Nic.Sriov.t;
  tor : Tor.Tor_switch.t;
  mutable attached : attached list;
}

let create ~engine ~name ~ip ~config ~tor =
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:Cost.host_kernel_cpus in
  (* Uplinks: server NIC ports toward the ToR. *)
  let vswitch_uplink =
    Fabric.Link.create ~engine ~gbps:Cost.link_gbps
      ~latency:Cost.nic_fixed_latency
      ~deliver:(fun pkt -> Tor.Tor_switch.receive tor pkt)
  in
  let sriov_uplink =
    Fabric.Link.create ~engine ~gbps:Cost.link_gbps
      ~latency:Cost.nic_fixed_latency
      ~deliver:(fun pkt -> Tor.Tor_switch.receive tor pkt)
  in
  let ovs =
    Vswitch.Ovs.create ~engine ~config ~host_pool ~server_ip:ip
      ~transmit:(fun pkt -> ignore (Fabric.Link.transmit vswitch_uplink pkt))
  in
  let sriov = Nic.Sriov.create ~engine ~host_pool ~wire:sriov_uplink in
  Tor.Tor_switch.attach_server tor ~server_ip:ip
    ~to_vswitch:(fun pkt -> Vswitch.Ovs.receive_from_nic ovs pkt)
    ~to_sriov:(fun pkt -> Nic.Sriov.receive_from_wire sriov pkt);
  { server_name = name; ip; host_pool; ovs; sriov; tor; attached = [] }

let name t = t.server_name
let ip t = t.ip
let ovs t = t.ovs
let host_pool t = t.host_pool

let add_vm t ~vm ~policy =
  let vif =
    Vswitch.Ovs.add_vif t.ovs ~policy ~deliver:(fun pkt -> Vm.deliver vm pkt)
  in
  let vf =
    match
      Nic.Sriov.allocate_vf t.sriov ~mac:(Vm.mac vm)
        ~vlan:(Netcore.Tenant.to_vlan (Vm.tenant vm))
        ~tenant:(Vm.tenant vm) ~vm_ip:(Vm.ip vm)
        ~deliver:(fun pkt -> Vm.deliver vm pkt)
    with
    | Ok vf -> vf
    | Error `No_vfs_left -> invalid_arg "Server.add_vm: out of VFs"
  in
  let vif_tx pkt = Vswitch.Ovs.transmit_from_vif t.ovs vif pkt in
  let vf_tx pkt = Nic.Sriov.transmit_from_vf vf pkt in
  let bonding = Bonding.create ~vif_tx ~vf_tx in
  Vm.set_transmit vm (fun pkt -> Bonding.transmit bonding pkt);
  Tor.Tor_switch.register_vm t.tor ~tenant:(Vm.tenant vm) ~vm_ip:(Vm.ip vm)
    ~server_ip:t.ip ();
  (* Make sure the tenant's VRF (and VLAN binding) exists at the ToR so
     hardware-path packets can be attributed. *)
  ignore (Tor.Tor_switch.vrf t.tor (Vm.tenant vm));
  let a = { vm; vif; vf; bonding } in
  t.attached <- a :: t.attached;
  a

let vms t = t.attached

let find_attached t ~vm_ip =
  List.find_opt (fun a -> Netcore.Ipv4.equal (Vm.ip a.vm) vm_ip) t.attached

let host_cpus_used t ~over =
  let vhosts =
    List.fold_left
      (fun acc a ->
        acc +. Compute.Cpu_pool.cpus_used (Vswitch.Ovs.vif_vhost_pool a.vif) ~over)
      0.0 t.attached
  in
  Compute.Cpu_pool.cpus_used t.host_pool ~over +. vhosts

let total_cpus_used t ~over =
  host_cpus_used t ~over
  +. List.fold_left (fun acc a -> acc +. Vm.cpus_used a.vm ~over) 0.0 t.attached

let reset_cpu_accounting t =
  Compute.Cpu_pool.reset_accounting t.host_pool;
  List.iter
    (fun a ->
      Compute.Cpu_pool.reset_accounting (Vswitch.Ovs.vif_vhost_pool a.vif);
      Vm.reset_cpu_accounting a.vm)
    t.attached
