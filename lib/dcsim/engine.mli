(** Discrete-event simulation engine.

    The engine owns the clock and the event queue. Components schedule
    closures to run at future instants; [run] executes them in time
    order until the queue drains or a stop condition triggers. *)

type t

val create : ?seed:int -> unit -> t
val now : t -> Simtime.t
val rng : t -> Rng.t

type handle

val at : t -> Simtime.t -> (unit -> unit) -> handle
(** Schedule a closure at an absolute instant.
    @raise Invalid_argument if it is in the past or {!Simtime.never}. *)

val after : t -> Simtime.span -> (unit -> unit) -> handle
(** Schedule a closure [span] after the current time.
    @raise Invalid_argument as {!at} does, or if the sum overflows. *)

val cancel : t -> handle -> bool

val every :
  t -> ?start:Simtime.t -> Simtime.span -> (unit -> [ `Continue | `Stop ]) -> unit
(** Periodic callback; reschedules itself until it returns [`Stop].
    A [start] at or before the current clock is clamped to now, so a
    periodic task can be kicked off from inside an event at the current
    instant. *)

val run : ?until:Simtime.t -> t -> unit
(** Execute events in order. With [until], events up to and including
    it fire; if a later event remains queued the clock then parks at
    [until] (never backwards), else it stays on the last event. *)

val run_window : t -> until_exclusive:Simtime.t -> unit
(** Execute events with timestamps {e strictly before} [until_exclusive]
    and advance the clock to [until_exclusive] — one lockstep window of
    a sharded run (see {!Cluster}). Unlike {!run}'s inclusive [until],
    the exclusive bound guarantees that an event another shard schedules
    here {e at} the boundary (the earliest instant the conservative
    lookahead allows) is still in this engine's future. If {!stop} fires
    mid-window the clock stays on the last executed event so the window
    can be resumed. *)

val min_time : t -> Simtime.t
(** Timestamp of the earliest pending event, or {!Simtime.never} if
    none. The cluster scheduler uses this to skip idle windows. *)

val pending_events : t -> int
(** Events currently in the queue (scheduled and not yet fired). *)

val advance_clock : t -> Simtime.t -> unit
(** Move the clock forward to [time] without running anything (no-op if
    [time] is not in the future). The cluster scheduler uses this to
    park idle shards at a time-limit boundary, mirroring what {!run}
    [?until] does to a busy shard's clock. *)

val stop : t -> unit
(** Request that [run] (or {!run_window}) return after the current
    event completes. *)

val events_processed : t -> int
(** Total events executed by this engine since {!create}. *)
