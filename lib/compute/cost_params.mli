(** Calibrated cost-model constants.

    All per-packet/per-byte CPU costs and fixed latencies used by the
    simulated vswitch, NIC, ToR and guest stacks live here, so the whole
    calibration is auditable in one place. Values are chosen to
    reproduce the ratios the paper reports in §3 (see EXPERIMENTS.md for
    paper-vs-measured):

    - netperf burst (3 threads × 32-deep) TPS ≈ 60K on SR-IOV vs ≈34K
      baseline OVS, ≈25K with tunneling, ≈30K with rate limiting;
    - VXLAN tunneling throughput capped ≈2 Gb/s at 1448 B, needing
      ≈2.9 logical CPUs at 1.96 Gb/s;
    - SR-IOV CPU 0.4–0.7× baseline OVS; combined path CPU 1.6–3×
      SR-IOV and pipelined latency 1.8–2.1× SR-IOV.

    The structural model: each VIF is served by a single vhost kernel
    thread (a 1-CPU station — the serialized resource that bounds burst
    TPS), per-packet softirq work lands on a shared host kernel pool,
    and each VM's receive/transmit stack work is serialized on the VM's
    kernel vCPU. SR-IOV bypasses the vhost and softirq stages entirely,
    leaving only a small per-packet interrupt-isolation charge on the
    host (§2.2). *)

type vswitch_config = {
  tunneling : bool;  (** VXLAN encap/decap ("OVS+Tunneling"). *)
  rate_limiting : bool;  (** tc htb on the VIF ("OVS+Rate limiting"). *)
}

val baseline : vswitch_config
val with_tunneling : vswitch_config
val with_rate_limiting : vswitch_config
val combined : vswitch_config
(** Tunneling + rate limiting, the §3.2.3 composition. *)

val pp_config : Format.formatter -> vswitch_config -> unit

(* --- vhost station (per-VIF, serialized) --- *)

val classify_lookup_us : float
(** Flow-cache lookup / classification dispatch cost, microseconds.
    Charged once per {e distinct flow} per vhost wakeup batch (packets
    of the same flow in a batch share one classification), on top of
    {!vhost_serial_cost}. A single-flow batch therefore costs
    [vhost_base + classify_lookup] = 14.0 us, matching the original
    unbatched calibration. *)

val vhost_serial_cost : vswitch_config -> unit_bytes:int -> Dcsim.Simtime.span
(** CPU time the VIF's vhost thread spends on one processing unit. *)

val vhost_stream_batching : float
(** Divisor applied to the vhost per-unit cost for bulk (stream) traffic:
    busy rings amortise wakeups over several descriptors. Sparse
    request/response traffic pays the full per-wakeup cost. *)

(* --- shared host softirq pool --- *)

val softirq_cost : vswitch_config -> unit_bytes:int -> Dcsim.Simtime.span
(** Parallelisable per-unit host kernel work (skb handling, copies). *)

val host_kernel_cpus : int
(** Size of the shared softirq pool per server. *)

(* --- processing units --- *)

val units_for : vswitch_config -> bytes_len:int -> int
(** Number of processing units for a message: one per 64 KiB TSO unit on
    TSO-capable paths, per-MTU-frame when VXLAN tunneling defeats NIC
    offloads (§3.2.1). Always >= 1. *)

(* --- guest stack --- *)

val guest_tx_cost : bytes_len:int -> Dcsim.Simtime.span
(** Serialized guest kernel transmit cost per message. *)

val guest_rx_cost : bytes_len:int -> Dcsim.Simtime.span
(** Serialized guest kernel receive cost per message. *)

val guest_tx_cost_bulk : bytes_len:int -> Dcsim.Simtime.span
(** Per app write on a saturated bulk sender: no wakeup chain, just the
    syscall + sendmsg path, run on the calling thread's vCPU (so bulk
    transmits parallelise across app cores). *)

val guest_rx_cost_bulk : bytes_len:int -> Dcsim.Simtime.span
(** Per bulk message after GRO/LRO aggregation: the full receive cost
    is paid once per ~64 KB train, prorated per message. *)

val guest_rx_wakeup_jitter_mean : Dcsim.Simtime.span
(** Mean of the exponential scheduler-wakeup jitter added to each
    message delivery into a guest application (latency only, no CPU). *)

(* --- SR-IOV path --- *)

val vf_rx_host_interrupt_cost : Dcsim.Simtime.span
(** Per-unit host charge with SR-IOV: the hypervisor still isolates
    interrupts (§2.2). *)

val nic_fixed_latency : Dcsim.Simtime.span
(** NIC store-and-forward + PCIe latency, each direction. *)

(* --- fabric --- *)

val link_gbps : float
(** Physical port rate (10 GbE testbed). *)

val wire_overhead_per_frame : int
(** Preamble + IFG bytes added per wire frame when serialising. *)

val tor_forward_latency : Dcsim.Simtime.span
(** Cut-through forwarding latency of the ToR, per hop. *)

val tor_vrf_latency : Dcsim.Simtime.span
(** Extra pipeline latency when a packet hits VRF/ACL/GRE processing on
    the FasTrak hardware path. *)

val server_app_default_cost : Dcsim.Simtime.span
(** Default per-request application service time (netperf echo). *)
