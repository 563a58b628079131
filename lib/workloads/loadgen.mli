(** Production-shaped load orchestration.

    Drives a pool of {!Flowgen} generators with the traffic structure
    real datacenters show and synthetic Poisson load does not:

    - heavy-tailed flow sizes (each generator's Pareto draw; use
      {!Dcsim.Rng.lognormal} sizes by pre-drawing if needed);
    - a diurnal rate {!curve} modulating the arrival process over a
      configurable [day], sampled exactly by thinning — no rate table;
    - per-source ON/OFF bursts with exponential residencies;
    - periodic incast fan-in: N sources fire simultaneously at one
      victim service;
    - continuous tenant churn through caller-supplied arrive/depart
      hooks (the soak experiment backs them with the two-phase VM
      migration machinery).

    The orchestrator keeps O(1) state per aggregate — port bitsets,
    gate bits and P² quantile estimators — so hundreds of thousands of
    concurrent flows cost it nothing beyond the simulation's own
    in-flight events. *)

type curve =
  | Flat
  | Sinusoid of { trough : float }
      (** Multiplier [1 + (1-trough)·sin(2πx)] over the day: mean 1,
          minimum [trough], peak [2-trough]. [trough] in [0,1]. *)
  | Piecewise of float array
      (** Equal-width segments over the day, normalized to mean 1 so a
          modulated day offers exactly the configured daily volume. *)

val curve_multiplier : curve -> frac:float -> float
(** The instantaneous rate multiplier at day-fraction [frac] (wraps
    modulo 1). Pure — exposed so properties about the curve (mean 1,
    bounded peak) are directly testable. *)

val curve_peak : curve -> float
(** The curve's maximum multiplier — the thinning envelope. *)

type incast = {
  victims : Flowgen.t array;
      (** Generators on distinct source VMs, all pointed at the victim
          destination IP. *)
  victim_port : int;
  fanin : int;  (** Senders per incast event (capped at [victims]). *)
  period : Dcsim.Simtime.span;
  burst_bytes : int;  (** Per-sender burst size. *)
}

type churn_hooks = { arrive : unit -> unit; depart : unit -> unit }
(** Tenant lifecycle, mechanism supplied by the caller. [Loadgen]
    alternates arrive/depart on an exponential clock so the tenant
    population stays bounded while always moving. *)

type config = {
  base_rate : float;  (** Mean flow arrivals/sec across all sources. *)
  day : Dcsim.Simtime.span;  (** Length of one diurnal cycle. *)
  curve : curve;
  on_mean : Dcsim.Simtime.span;  (** Mean ON residency per source. *)
  off_mean : Dcsim.Simtime.span;
  churn_period : Dcsim.Simtime.span option;
      (** Mean gap between churn events; [None] disables churn even
          when hooks are supplied. *)
}

val default_config : config

type t

val start :
  engine:Dcsim.Engine.t ->
  ?incast:incast ->
  ?churn:churn_hooks ->
  gens:Flowgen.t array ->
  config ->
  t
(** Create the generators with {!Flowgen.create} (no internal clock);
    [Loadgen] owns every arrival. *)

type stats = {
  arrivals : int;  (** Flows admitted through curve and gate. *)
  thinned : int;  (** Candidates rejected by the diurnal curve. *)
  gated_off : int;  (** Arrivals landing on an OFF source. *)
  incast_events : int;
  churn_arrivals : int;
  churn_departures : int;
  live : int;  (** Flows currently holding a source port. *)
  flows_completed : int;
  flows_skipped : int;  (** Shed: source port space exhausted. *)
  bytes_offered : int;
  live_q : Obs.Timeseries.quantiles;
      (** Concurrency, sampled every 100 ms. *)
  rate_q : Obs.Timeseries.quantiles;
      (** Admitted arrival rate over each 100 ms window. *)
}

val stats : t -> stats
val arrivals : t -> int

val state_words : t -> int
(** Heap words of generator-owned bookkeeping (port bitsets, gate
    bits, quantile estimators) — flat in flow count. *)
