(** Token-bucket rate limiter over simulated time.

    Tokens are bytes; the bucket refills continuously at the configured
    rate and caps at the burst depth. Both the software (tc htb leaf)
    and hardware (NIC/ToR policer) limiters are built on this. *)

type t

val create : Rules.Rate_limit_spec.t -> now:Dcsim.Simtime.t -> t

val spec : t -> Rules.Rate_limit_spec.t

val set_spec : t -> Rules.Rate_limit_spec.t -> now:Dcsim.Simtime.t -> unit
(** Reconfigure the rate (FPS re-adjusts limits every control interval).
    Accumulated tokens are clamped to the new burst; an
    unlimited->limited transition starts the bucket empty, since the
    unlimited bucket's token count is a sentinel, not earned credit. *)

val available : t -> now:Dcsim.Simtime.t -> float
(** Current token count in bytes (refilled to [now]). *)

val try_consume : t -> now:Dcsim.Simtime.t -> bytes_len:int -> bool
(** Consume tokens if the packet conforms; otherwise leave the bucket
    untouched and return false. *)

val time_until_conform : t -> now:Dcsim.Simtime.t -> bytes_len:int -> Dcsim.Simtime.span
(** Delay until a packet of the given size would conform;
    [Simtime.span_zero] if it conforms now. Infinite rates always
    conform. *)
