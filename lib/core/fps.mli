(** Flow Proportional Share rate-limit splitting (§4.1.4, §4.3.2).

    A VM's contracted rate limit must now cover two paths. FPS
    (Raghavan et al., SIGCOMM 2007) assigns each limiter a share of the
    aggregate proportional to its local demand; FasTrak adds an
    overflow allowance O to each split so that an overly-restrictive
    split is detectable: a path that maxes out its limit signals that
    its share should grow, and the next control interval re-adjusts. *)

type input = {
  demand_soft_bps : float;  (** Measured software-path demand. *)
  demand_hard_bps : float;  (** Measured hardware-path demand. *)
  soft_maxed : bool;  (** Software limiter was backlogged. *)
  hard_maxed : bool;  (** Hardware limiter was backlogged. *)
}

type split = {
  soft : Rules.Rate_limit_spec.t;  (** Rs = Ls + O. *)
  hard : Rules.Rate_limit_spec.t;  (** Rh = Lh + O. *)
}

val split :
  total_bps:float -> overflow_bps:float -> current:split option -> input -> split
(** Invariant: Ls + Lh = total, each >= a 5% floor of total. A maxed
    path's demand is treated as at least 1.25x its current limit so its
    share keeps growing until demand is genuinely satisfied. With an
    unlimited total, both splits are unlimited.

    The overflow allowance [O] is deliberately added to {e both} paths
    (Rs = Ls + O and Rh = Lh + O, so Rs + Rh = total + 2O): per §4.1.4
    each limiter independently needs headroom above its share so that
    an overly-restrictive split is detectable on either path — a path
    pinned exactly at Ls/Lh could never signal excess demand. Splitting
    O across the paths would halve that signal, so it is not done.

    Numeric safety: a maxed side whose current limit is non-finite
    (e.g. [Rate_limit_spec.unlimited]) takes its measured demand
    instead of the 1.25x boost — boosting an infinite limit would make
    the share inf/inf = NaN. Non-finite or negative demands and
    overflow are treated as zero. For any finite [total_bps >= 0] the
    returned rates are finite and non-negative; a NaN [total_bps]
    raises [Invalid_argument], as does an internal computation that
    would otherwise install a NaN or negative rate. *)
