(** Deterministic random number generation for simulations.

    Every stochastic component of the simulator draws from an [Rng.t]
    derived from the experiment seed, so a run is a pure function of its
    configuration. Independent components should use [split] to obtain
    decorrelated streams whose draws do not perturb each other. *)

type t

val create : seed:int -> t

val split : t -> string -> t
(** [split t label] derives an independent stream identified by [label].
    Splitting with the same label twice yields identical streams. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val uniform_span : t -> Simtime.span -> Simtime.span
(** Uniform duration in [0, span). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean. *)

val pareto : t -> shape:float -> scale:float -> float
(** Pareto draw: heavy-tailed, used for flow-size distributions. *)
