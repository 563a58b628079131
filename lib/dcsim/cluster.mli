(** Conservative-lookahead scheduler over sharded engines.

    A cluster owns a fixed set of {!Engine.t} shards — in the datacenter
    simulation, one per rack plus one for the aggregation core — and
    advances them in lockstep windows. Components on different shards
    may communicate {e only} through latency-bearing channels
    ([Fabric.Channel]), each of which registers its propagation delay
    via {!constrain_lookahead}; the window length is the minimum such
    delay. Within one window [\[S, S+L)] every cross-shard send leaving
    at [t >= S] arrives at [t + latency >= S + L], i.e. beyond the
    window — so shards can execute a window in any order without ever
    receiving an event in their past. That is the {b lookahead
    invariant}: {e no event may cross a shard boundary in less than the
    channel's minimum latency}. See [docs/ENGINE.md] for the execution
    model and a worked example.

    Runs are deterministic: windows always start at the globally
    earliest pending event and shards execute in fixed array order, so
    a given seed reproduces the same schedule. A cluster with exactly
    one shard degenerates to {!Engine.run} — the single-rack paper
    experiments keep their historical event schedule byte-identically. *)

type t

val create : shards:Engine.t array -> t
(** A cluster over the given shard engines (at least one; all
    distinct). The array order is the (deterministic) execution order
    within each window. *)

val shard_count : t -> int
(** Number of shards. *)

val constrain_lookahead : t -> Simtime.span -> unit
(** Lower the cluster's lookahead bound to [span] if it is smaller than
    the current bound (the bound starts unset). Called by every
    cross-shard channel with its propagation latency; the window length
    is the minimum over all calls.
    @raise Invalid_argument if [span] is not positive — a zero-latency
    cross-shard channel would force zero-length windows. *)

val lookahead : t -> Simtime.span option
(** The current window length: the minimum latency registered so far,
    or [None] if no channel has registered yet. *)

val run : ?until:Simtime.t -> t -> unit
(** Advance all shards in lockstep windows until every queue drains,
    [until] is reached, or {!stop} is called. Every shard, idle or not,
    ends a full window on its end; in the window holding [until] each
    shard follows [Engine.run ~until]'s parking rule. Empty stretches
    are skipped: each window starts at the earliest pending event.

    With a single shard this is exactly [Engine.run ?until]. With
    several, a lookahead bound must have been registered.

    After a {!stop} interrupted a window, the next [run] first finishes
    that window (its sends all land beyond the stored horizon, so this
    is safe) — which may execute events past a smaller [until]; [stop]
    is a coarse emergency brake, not a precision limit.
    @raise Invalid_argument on a multi-shard run with no registered
    lookahead. *)

val stop : t -> unit
(** Request that {!run} return after the currently executing event. *)

val events_processed : t -> int
(** Total events executed, summed over shards. *)

val windows_run : t -> int
(** Lockstep windows opened so far (0 for single-shard runs, which
    need no windows). *)
