(** Offload ranking (§4.3.2).

    [S = n x m_pps x c]: [n] is the number of epochs the flow was
    active over the measurement history, [m_pps] the median
    packets-per-second, and [c] an optional tenant-priority multiplier
    for applications that must be handled in hardware together or with
    preference. MFU-by-pps is deliberately not elephant selection: a
    service exchanging many small flows scores via its aggregate. *)

val score : epochs_active:int -> median_pps:float -> ?priority:float -> unit -> float
(** [priority] defaults to 1.0. *)
