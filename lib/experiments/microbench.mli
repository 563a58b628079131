(** The §3 microbenchmarks: Figures 3, 4 and 5.

    Each path under test is a fresh two-server testbed (Figure 2): a
    client VM and a server VM, traffic pinned to the software VIF path
    under one of the OVS configurations, or to the SR-IOV hardware
    path. Three netperf shapes per path: TCP_STREAM throughput,
    closed-loop TCP_RR latency, and 32-deep burst TCP_RR. *)

type path =
  | Ovs of Compute.Cost_params.vswitch_config
  | Sriov of Rules.Rate_limit_spec.t
      (** Hardware path, with an optional NIC rate limit (used by the
          Figure 5 combined comparison). *)

type point = {
  path : path;
  size : int;
  throughput_gbps : float;
  rr_mean_us : float;
  rr_p99_us : float;
  burst_tps : float;
  burst_latency_us : float;
}

val run_fig3 : unit -> point list
val run_fig5 : unit -> point list
val print_points : title:string -> point list -> unit
