(** Chaos experiment: the FasTrak control plane under injected faults.

    Runs a hot transactional workload on a 3-server rack with every
    control channel (one-engine {!Fabric.Channel}s) in unreliable mode
    under a configurable {!Faults.Schedule}, then quiesces the load and
    checks that the ack/retry protocol converged: the TOR controller's
    view of what is offloaded matches the union of the servers'
    flow-placer views ({!Fastrak.Rule_manager.views_reconciled}), and
    no directive is left unacknowledged. See [docs/FAULTS.md]. *)

type result = {
  schedule : string;  (** Canonical rendering of the schedule run. *)
  run_seconds : float;
  drain_seconds : float;
  drops : int;
      (** Control messages dropped ([fabric.channel.drops] delta). *)
  dups : int;
  reorders : int;
  retries : int;  (** Directive retransmissions. *)
  failures : int;  (** Directives that exhausted their attempts. *)
  peer_deaths : int;
  promotions : int;
  demotions : int;
  tor_offloaded : Netcore.Fkey.Pattern.t list;
  local_offloaded : Netcore.Fkey.Pattern.t list;
  unacked : int;  (** Pending + unreconciled directives after drain. *)
  reconciled : bool;
      (** TOR-side and server-side offloaded views agree after the
          drain, once any directive still in flight has landed
          ({!Fastrak.Rule_manager.settle}). *)
  rtt : Obs.Timeseries.quantiles;
      (** Directive send→ack round trip in µs under this fault profile
          (streaming p50/p90/p99 from {!Obs.Timeseries}); [count] is
          the number of acknowledged directives measured. *)
}

val run : ?schedule:string -> unit -> result
(** [schedule] is a profile name or [Faults.Schedule.of_string] spec
    (the CLI's [--faults]), default ["lossy"]. The run spends 4 s under
    load, then 3 s quiesced.
    @raise Invalid_argument on a bad schedule. *)

val print : result -> unit
