(** Per-tenant SLO scoreboard.

    Compares each tenant's {e achieved} service — delivered goodput and
    p99 request latency — against its {e contracted} FPS rate limits
    (and an optional latency target). Contracts are registered when a
    testbed places the tenant's VMs; goodput is fed by the delivery
    sites (vswitch VIF delivery, SR-IOV VF receive) and latency by the
    request/response workloads. All feeds are always-on and cheap (an
    int-keyed hash probe plus in-place mutation), so the scoreboard is
    populated for every run without changing what the simulation
    computes.

    The scoreboard is the harness tenant-interference experiments
    assert against: a tenant riding {e above} its contracted rate by
    more than 25% (a tolerance for the FPS overflow headroom) is an
    isolation breach, and {!check} reports it through an
    {!Obs.Monitor} as a [tenant_slo] violation — strict mode turns it
    into a non-zero exit. The CLI prints {!report} per experiment
    under [--tenant-report].

    State is process-global like the metrics registry; the CLI calls
    {!reset} before each experiment so every scoreboard is one
    experiment's own. *)

type row = {
  tenant : int;
  contracted_bps : float;  (** Sum of registered limits; [nan] = none. *)
  achieved_bps : float;
      (** Delivered goodput over the tenant's active window; [nan] when
          unmeasurable (no traffic, or a single-instant window). *)
  goodput_bytes : int;
  window_s : float;  (** First-to-last delivery span, seconds. *)
  latency_p99_us : float;  (** [nan] with no samples. *)
  latency_samples : int;
  latency_slo_us : float;  (** Registered target; [nan] = none. *)
  rate_ok : bool;
      (** Achieved within contracted × 1.25; vacuously true without a
          contract or without measurable traffic. *)
  latency_ok : bool;
}

val add_contract : tenant:int -> ?tx_bps:float -> ?p99_us:float -> unit -> unit
(** Register contracted service for [tenant]: [tx_bps] {e adds} to the
    tenant's contracted rate (one call per VM; [infinity] for an
    unlimited VM absorbs the sum), [p99_us] sets the latency target. *)

val observe_goodput : tenant:int -> now:Dcsim.Simtime.t -> int -> unit
(** Count delivered payload bytes, stamped with [now], the delivering
    engine's clock. Called by the vswitch and SR-IOV delivery sites. *)

val observe_latency_us : tenant:int -> float -> unit
(** Feed one request latency sample (µs). Called by the
    request/response workloads on each completed transaction. *)

val scoreboard : unit -> row list
(** One row per tenant seen by any feed, sorted by tenant id. A rate up
    to 25% above the contract is still conformant: FPS deliberately
    over-provisions each path by the overflow allowance, so a small
    excursion is not a breach. *)

val report : unit -> string
(** The scoreboard as an aligned text table with a per-tenant verdict
    ([ok] / [RATE BREACH] / [P99 BREACH]); one line when no tenant was
    observed. *)

val check : Monitor.t -> unit
(** Evaluate the scoreboard and report every breaching tenant through
    [monitor] as a [tenant_slo] violation ({!Monitor.breach}), stamped
    at that tenant's last delivery — so a strict monitor turns an SLO
    breach into {!Monitor.Strict_violation}. *)

val reset : unit -> unit
(** Drop all cells: contracts, goodput and latency state. *)
