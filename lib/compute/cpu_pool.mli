(** A pool of logical CPUs serving jobs FIFO.

    Models both guest vCPUs and the host kernel CPUs that run the
    vswitch datapath. Each packet-processing step is a job with a CPU
    cost; jobs queue when all CPUs are busy, which is what turns
    packets-per-second into hypervisor latency (the Little's-law effect
    of §3.2.4). Busy time is integrated so experiments can report
    "number of CPUs used for the test" exactly as the paper does. *)

type t

val create : engine:Dcsim.Engine.t -> cpus:int -> t

val submit : t -> cost:Dcsim.Simtime.span -> (unit -> unit) -> unit
(** Enqueue a job; when a CPU frees up, the job occupies it for [cost]
    and then the continuation runs. Zero-cost jobs still queue (they
    model a kernel crossing that must wait for a CPU). *)

val run_inline : t -> cost:Dcsim.Simtime.span -> unit
(** Account [cost] of busy time without queueing — for background noise
    whose latency path is irrelevant. *)

val busy_seconds : t -> float
(** Total CPU-seconds consumed so far (includes jobs still running,
    counted at completion). *)

val utilization : t -> over:Dcsim.Simtime.span -> float
(** busy_seconds / (cpus × over): average fraction of the pool used. *)

val cpus_used : t -> over:Dcsim.Simtime.span -> float
(** busy_seconds / over: the "number of logical CPUs" the work amounts
    to over the window — the unit used in Figure 4 and Tables 1–4. *)

val queue_length : t -> int
val busy_cpus : t -> int
val jobs_completed : t -> int
val reset_accounting : t -> unit
(** Zero the busy-time integral (used at measurement-window start). *)
