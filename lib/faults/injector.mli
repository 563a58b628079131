(** A per-channel fault source: one {!Schedule.t} bound to one
    {!Dcsim.Rng} stream.

    Each message send asks {!decide} for a verdict. The draw sequence
    is a pure function of the schedule, the RNG stream and the sequence
    of [now] values, so two runs with the same seed inject exactly the
    same faults. Derive each channel's stream with [Dcsim.Rng.split]
    under a distinct label so channels do not perturb one another. *)

type t

val create : schedule:Schedule.t -> rng:Dcsim.Rng.t -> t

type verdict =
  | Deliver of {
      extra_delay : Dcsim.Simtime.span;  (** Jitter added to the base latency. *)
      in_order : bool;
          (** When false, the message skips the channel's in-order
              clamp and may overtake earlier sends. *)
      duplicate_delay : Dcsim.Simtime.span option;
          (** When set, a second copy is delivered with this jitter. *)
    }
  | Drop

val decide : t -> now:Dcsim.Simtime.t -> verdict
(** Verdict for the next message sent at [now]. Consults link-down
    windows and armed triggers before any probabilistic draw. *)

val drops : t -> int
(** Messages dropped so far (windows + triggers + probabilistic). *)
