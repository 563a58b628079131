(** The Top-of-Rack L3 switch (§4.1.3, §4.2).

    Transmit path (packet from a VM's SR-IOV VF, VLAN-tagged): the VLAN
    selects the tenant's VRF; the packet is checked against the
    installed allow-ACLs (default deny), GRE-encapsulated with the
    destination ToR and the tenant id in the GRE key, and routed.

    Receive path (GRE packet addressed to this ToR): the GRE key
    selects the VRF; after decap and ACL check the packet is tagged
    with the tenant VLAN and sent to the destination server through the
    port's egress FIFO ({!Qos_queue}).

    VXLAN-encapsulated and plain packets (the software path) are routed
    unchanged — the vswitch did all rule processing. *)

type t

val create :
  engine:Dcsim.Engine.t -> ip:Netcore.Ipv4.t -> tcam_capacity:int -> t
(** A ToR at loopback address [ip] with an empty TCAM of
    [tcam_capacity] entries and no servers attached. *)

val ip : t -> Netcore.Ipv4.t
(** The switch's loopback address (the GRE tunnel endpoint). *)

val tcam : t -> Tcam.t
(** The shared TCAM budget all tenant VRFs draw from. *)

val vrf : t -> Netcore.Tenant.id -> Vrf.t
(** The tenant's VRF, created on first use (allocates the tenant VLAN
    binding). *)

val attach_server :
  t ->
  server_ip:Netcore.Ipv4.t ->
  to_vswitch:(Netcore.Packet.t -> unit) ->
  to_sriov:(Netcore.Packet.t -> unit) ->
  unit
(** Create the two downlinks to a server: one to the NIC port owned by
    the vswitch, one to the SR-IOV port. Each is a 10 GbE link behind
    its own paced FIFO. *)

val register_vm :
  t ->
  tenant:Netcore.Tenant.id ->
  vm_ip:Netcore.Ipv4.t ->
  server_ip:Netcore.Ipv4.t ->
  ?port:[ `Vswitch | `Sriov ] ->
  unit ->
  unit
(** Record VM location for routing of plain (untunneled) packets and
    of decapsulated hardware-path packets. Re-registering moves the VM
    (migration). [port] (default [`Vswitch]) selects which NIC port of
    the server plain packets for this VM are delivered to — the §6.1
    experiments statically point a VM's address at the SR-IOV port
    ("no tunneling or rate limiting on the hardware path"); packets
    delivered to the SR-IOV port are VLAN-tagged so the NIC can steer
    them to the right VF. *)

val add_peer : t -> Netcore.Ipv4.t -> (Netcore.Packet.t -> unit) -> unit
(** Uplink to a peer ToR, keyed by its loopback address. *)

val set_uplink : t -> (Netcore.Packet.t -> unit) -> unit
(** Default route for software-path (VXLAN) packets whose outer server
    address is not attached to this rack: hand them to the given
    forwarder (the rack's uplink towards the core). Without one —
    single-rack topologies — such packets are dropped as before. *)

val iter_vrfs : t -> (Vrf.t -> unit) -> unit
(** Visit every instantiated tenant VRF. Used by the soft-error
    injector and the anti-entropy audit. *)

val set_install_fault : t -> (unit -> bool) option -> unit
(** Arm (or with [None] disarm) the probabilistic install-failure hook
    on every tenant VRF, including ones created later. See
    {!Vrf.set_install_fault}. *)

(** {2 Express-lane liveness probes}

    BFD-style probes ride the same GRE express path as offloaded
    traffic (same peers table, same fabric links), so they share its
    fate: a down lane loses probes exactly like it loses data. Probes
    use reserved L4 ports and belong to no tenant — the receive path
    answers them before any VRF/ACL work. *)

val send_lane_probe : t -> dst_tor_ip:Netcore.Ipv4.t -> seq:int -> unit
(** Send one probe (sequence number [seq], truncated to 16 bits and
    carried in the source port) towards the peer ToR at [dst_tor_ip].
    The peer echoes a reply over the reverse lane; arrival is reported
    to the {!set_probe_sink} callback. With no peer route the probe is
    counted as a no-route drop. *)

val set_probe_sink :
  t -> (remote_tor:Netcore.Ipv4.t -> seq:int -> unit) -> unit
(** Register the callback invoked for each received probe reply. *)

val receive : t -> Netcore.Packet.t -> unit
(** Ingest one packet from any port and route it by its outer encap:
    VLAN = hardware-path transmit, GRE = hardware-path receive or peer
    forward, VXLAN/plain = software path. *)

val offloaded_flows : t -> (Netcore.Fkey.t * int * int) list
(** Cumulative (packets, bytes) per flow on the hardware path — what
    the TOR ME polls (§4.3.1). *)

val expire_idle_flows : t -> unit
(** {!Vswitch.Flow_stats.expire} on the hardware-path counters; the
    TOR ME calls it at the start of each epoch. *)

val acl_drops : t -> int
(** Packets killed by a VRF's default deny (§4.1.3). *)

val no_route_drops : t -> int
(** Packets with no usable destination: unknown VLAN, unregistered VM,
    missing tunnel mapping, or unattached server/peer. *)
