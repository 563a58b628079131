(** A shaping queue: FIFO of packets drained through a token bucket.

    Models tc htb leaf behaviour on a VIF and hardware rate limiters on
    a NIC VF: non-conforming packets wait (no drops), order is
    preserved, and the queue backlog is tracked so controllers can tell
    when a configured limit is the bottleneck (FPS uses exactly this
    signal to re-adjust split rate limits, §4.3.2). *)

type t

val create :
  engine:Dcsim.Engine.t ->
  spec:Rules.Rate_limit_spec.t ->
  forward:(Netcore.Packet.t -> unit) ->
  ?size_of:(Netcore.Packet.t -> int) ->
  unit ->
  t
(** [size_of] defaults to {!Netcore.Packet.wire_size}. *)

val enqueue : t -> Netcore.Packet.t -> unit
val set_spec : t -> Rules.Rate_limit_spec.t -> unit
val spec : t -> Rules.Rate_limit_spec.t
val forwarded : t -> int
val forwarded_bytes : t -> int

val backlogged_seconds : t -> float
(** Cumulative time the queue was non-empty — the "maxed out" signal. *)
