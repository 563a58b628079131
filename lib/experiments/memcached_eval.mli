(** The §6.1 memcached experiments: Tables 1, 2 and 3.

    Topology (Figures 10–11): memcached server VMs on the test server
    (server 0), one memslap client VM on each of five other servers.
    The hardware path is the §6.1 static one: flow placer pinned to the
    VF and the fabric delivering the VM's traffic to the SR-IOV port,
    with no tunneling or rate limiting.

    Scaling: the paper's finish-time runs issue 2M requests per client;
    by default we issue [requests_scale] x that and report finish times
    normalised back to 2M (the workload is steady-state, so finish time
    scales linearly in request count — the measured TPS column is the
    primary evidence). *)

type row = {
  label : string;
  tps_aggregate : float;  (** Sum over clients (Table 1 convention). *)
  tps_per_client : float;  (** Mean per client (Table 2 convention). *)
  mean_latency_us : float;
  finish_time_s : float option;  (** Normalised to 2M requests/client. *)
  cpus : float;  (** Test-server CPUs used. *)
}

val requests_scale : float ref
(** Default 0.1. Set to 1.0 to run the full 2M-request experiments. *)

type setup = {
  tb : Testbed.t;
  mem_vms : Host.Server.attached list;
  clients : Workloads.Transactions.Client.t list;
}

val build :
  ?tcam_capacity:int ->
  mem_vm_count:int ->
  vf_indices:int list ->
  background:[ `None | `Iozone | `Scp ] ->
  total_requests:int option ->
  unit ->
  setup
(** Exposed for the Table 4 (FasTrak) experiment, which runs the same
    topology under the controllers. *)

val run_to_finish : label:string -> setup -> row
(** Run until every client has issued its request budget, capped at
    300 simulated seconds (a client still short counts as finishing at
    the cap). *)

val finish_requests : unit -> int option

val run_table1 : unit -> row list
(** Four rows: VIF / SR-IOV, then the same with an IOzone VM (1a, 1b). *)

val run_table2 : unit -> row list
(** Five rows: 100 / 75 / 50 / 25 / 0 % of memcached traffic via VIF. *)

val run_table3 : unit -> row list
(** VIF vs SR-IOV with a disk-bound scp per memcached VM. *)

val print_rows : title:string -> row list -> unit
