(** Rate-limit specifications: the contracted bandwidth of a VM
    interface, enforced by a token bucket (tc htb in software, NIC/ToR
    policers in hardware). *)

type t = {
  rate_bps : float;  (** Sustained rate, bits per second. *)
  burst_bytes : int;  (** Bucket depth. *)
}

val make : rate_bps:float -> t
(** The burst is 100 ms worth of the rate (tc's rule of thumb), floor
    one MTU. *)

val unlimited : t
val gbps : float -> t
val is_unlimited : t -> bool
val pp : Format.formatter -> t -> unit
