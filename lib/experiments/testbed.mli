(** Testbed construction: the §5.1 rack in simulation.

    One ToR; a configurable number of servers, each with a vswitch-owned
    port and an SR-IOV port; VMs with policies (ACLs, rate limits,
    tunnel mappings for every peer). {!pin} installs static hardware
    rules in a ToR without the FasTrak controllers; {!force_path_vf}
    builds on it to pin a VM's traffic to the hardware path (for the
    §3/§6.1 microbenchmarks, which compare fixed paths). *)

type t = {
  engine : Dcsim.Engine.t;
  tor : Tor.Tor_switch.t;
  servers : Host.Server.t array;
}

val create :
  ?engine:Dcsim.Engine.t ->
  ?seed:int ->
  ?config:Compute.Cost_params.vswitch_config ->
  ?server_count:int ->
  ?tcam_capacity:int ->
  ?rack:int ->
  ?name_prefix:string ->
  unit ->
  t
(** Defaults: seed 42, baseline OVS config, 6 servers (as in §5.1),
    2048 TCAM entries, rack 0, empty name prefix. Passing [?engine]
    builds the rack on an existing shard engine instead of creating a
    fresh one ([seed] is then ignored); [rack] offsets the ToR loopback
    (192.168.0.[1+rack]) and the server subnet (192.168.[1+rack].x) so
    multiple racks coexist in one address space; [name_prefix] keeps
    server names — and the per-server observability monitors keyed on
    them — distinct across racks. The defaults reproduce the historic
    single-rack testbed exactly. *)

type vm_spec = {
  server : int;  (** Index into [servers]. *)
  vm_name : string;
  vcpus : int;
  tenant : Netcore.Tenant.id;
  ip_last_octet : int;  (** VM address is 10.<tenant>.0.<octet>. *)
  tx_limit : Rules.Rate_limit_spec.t;
  sriov : bool;
}

val vm_spec :
  ?vcpus:int ->
  ?tenant:Netcore.Tenant.id ->
  ?tx_limit:Rules.Rate_limit_spec.t ->
  ?sriov:bool ->
  server:int ->
  name:string ->
  ip_last_octet:int ->
  unit ->
  vm_spec
(** Defaults: 4 vCPUs, tenant 7, no tx limit, an SR-IOV VF. *)

val add_vm : t -> vm_spec -> Host.Server.attached
(** Place the VM on its server with a policy of one allow-all ACL and
    the spec's tx limit, and register the tx limit as the tenant's
    contract with {!Obs.Slo}. *)

val peer_ips : t -> Host.Server.attached -> Netcore.Ipv4.t list
(** The addresses of every other VM in the testbed, in server order. *)

val server_of_vm : t -> Netcore.Ipv4.t -> Host.Server.t option
(** The server hosting the VM with that address, if it was added to
    this testbed. *)

val connect_tunnels : t -> unit
(** Install tunnel mappings (peer VM -> server/ToR) into every VM's
    policy, for all VM pairs created so far. Call after adding VMs and
    before running tunneling configs. *)

val pin :
  Tor.Tor_switch.t ->
  Host.Server.attached ->
  selection:Netcore.Fkey.Pattern.t ->
  destinations:Netcore.Ipv4.t list ->
  Tor.Vrf.t * Rules.Rule_compiler.compiled * Tor.Vrf.handle
(** The one static hardware pin: compile [selection] against VM [a]'s
    policy for [destinations] and install the result in [tor]'s VRF
    for [a]'s tenant ([tor] may be another rack's). Returns the VRF,
    the compiled rules and the handle. Such rules are not controller
    intent, so the TOR controller's audit never touches them.
    @raise Invalid_argument if the policy or the TCAM refuses. *)

val force_path_vf : t -> Host.Server.attached -> unit
(** Statically pin all of this VM's outgoing traffic to the SR-IOV path:
    flow placer rule (any -> VF) plus a {!pin} at the ToR for every
    peer destination. Used by the path-comparison microbenchmarks.
    @raise Invalid_argument if the VM has no VF or the pin fails. *)

val run_for : t -> seconds:float -> unit
(** Advance the simulation by [seconds] from now. *)
