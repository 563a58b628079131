(** Background/contrast workloads from the evaluation.

    - [scp]: a disk-bound file transfer — low packets-per-second bulk
      flow plus the disk-I/O CPU churn it causes on the VM kernel and
      the host. The §6.2.1 narrative measures it at ~135 pps outgoing
      and ~115 pps incoming (mostly acks); FasTrak must rank it far
      below memcached and leave it in software.
    - [iozone]: a filesystem benchmark: VM-local disk churn, no
      network. *)

type scp

val install_scp_sink : vm:Host.Vm.t -> unit

val scp :
  engine:Dcsim.Engine.t ->
  vm:Host.Vm.t ->
  dst_ip:Netcore.Ipv4.t ->
  ?total_bytes:int ->
  ?rate_bps:float ->
  unit ->
  scp
(** Default: 4 GB at ~1.56 Mb/s application rate (which is 135 x 1448 B
    messages per second), plus disk-I/O CPU noise of ~25% of one core
    on the VM kernel. *)

val scp_stream : scp -> Stream.t

val iozone :
  engine:Dcsim.Engine.t ->
  vm:Host.Vm.t ->
  host:Compute.Cpu_pool.t ->
  ?contended:Compute.Cpu_pool.t list ->
  unit ->
  unit
(** Start IOzone-like churn: ~60% of one VM app core, ~35% of one VM
    kernel core, ~20% of one host CPU, in bursty 1 ms periods; runs
    until the simulation ends. [contended] lists CPU pools that share
    physical cores with the IOzone VM (co-located VMs' kernel vCPUs,
    vhost threads — the paper pins three VMs to four CPUs), each of
    which receives ~15% duty-cycle interference. *)
