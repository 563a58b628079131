(** Figure 4: CPU required to drive each interface (the Figure 1
    setup: four test VMs on one server, each running one single-thread
    TCP_STREAM with TCP_NODELAY to a sink on another server).

    Fig. 4(a) compares baseline OVS, OVS+Tunneling, OVS+Rate-limiting
    (5 Gb/s per VM, oversubscribing the port 1.5x with three VMs) and
    SR-IOV. Fig. 4(b) compares the combined configuration
    (tunneling + 1 Gb/s limit) against SR-IOV with a 1 Gb/s hardware
    limit. *)

type point = {
  label : string;
  size : int;
  aggregate_gbps : float;
  cpus_total : float;  (** Host + guests on the test server. *)
  cpus_host : float;  (** Hypervisor-side only. *)
}

val run_fig4a : unit -> point list
val run_fig4b : unit -> point list
val print_points : title:string -> point list -> unit
