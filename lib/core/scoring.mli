(** Offload ranking (§4.3.2).

    [S = n x m_pps x c]: [n] is the number of epochs the flow was
    active over the measurement history, [m_pps] the median
    packets-per-second, and [c] the paper's tenant-priority multiplier.
    No experiment here weights tenants, so c = 1 and S = n x m_pps.
    MFU-by-pps is deliberately not elephant selection: a service
    exchanging many small flows scores via its aggregate. *)

val score : epochs_active:int -> median_pps:float -> float
