(** A typed, latency-bearing, FIFO message channel: the one channel
    for packets between engine shards and controller messages alike.

    Between shards it is the only legal way for components on different
    {!Dcsim.Engine}s to communicate (see [docs/ENGINE.md]): a [send] on
    the source shard delivers the message to the handler on the
    destination shard no earlier than the channel's propagation latency
    from now, and never out of order with respect to earlier sends on
    the same channel. The latency is the channel's {e minimum}: FIFO
    clamping can delay a message further, never hasten it.

    Channels may also connect two components on the {e same} engine
    (then any non-negative latency is allowed). The FasTrak controllers
    talk over such channels ([Fastrak.Rule_manager] builds each
    server's uplink and directive channel this way), and a sharded
    topology degenerates onto a single engine with an identical event
    schedule, which the equivalence tests exploit.

    Passing [?cluster] registers the latency as a lookahead bound with
    the {!Dcsim.Cluster} scheduler; every cross-shard channel of a
    sharded simulation must do so, or [send] may find the destination
    shard already past the delivery instant and raise. *)

type 'msg t

val create :
  ?cluster:Dcsim.Cluster.t ->
  ?faults:Faults.Injector.t ->
  ?copy:('msg -> 'msg) ->
  ?name:string ->
  src:Dcsim.Engine.t ->
  dst:Dcsim.Engine.t ->
  latency:Dcsim.Simtime.span ->
  handler:('msg -> unit) ->
  unit ->
  'msg t
(** A channel from [src] to [dst] delivering each message to [handler]
    after at least [latency]. [name] labels error messages and
    [ctrl_drop] trace events (default ["fabric.chan"]). With
    [?cluster] and distinct engines, the latency is registered as a
    lookahead bound via {!Dcsim.Cluster.constrain_lookahead}.

    With [?faults], each send draws a verdict from the injector: drops
    lose the message without advancing the FIFO cursor (counted in
    [fabric.channel.drops] and announced as an
    {!Obs.Trace.Ctrl_drop} event), jitter only ever {e adds} to
    [latency] (so registered lookahead bounds stay valid), reorder
    verdicts bypass the FIFO clamp, and duplicates deliver the message
    a second time, outside the clamp, at the original's jittered
    delivery instant plus the duplicate delay (so a copy never
    overtakes an original the clamp did not hold back). The copy goes
    through [copy] (default identity), which messages with
    mutable state must override (packet channels pass
    {!Netcore.Packet.copy}, or the first delivery's decap would
    corrupt the duplicate). Protocol code above the channel (sequence
    numbers, acks, retries) must survive these faults. Without
    [?faults] the delivery path is untouched — fault-free runs stay
    byte-identical.
    @raise Invalid_argument if [latency] is negative, or zero with
    [src != dst] (a zero-latency cross-shard link would break the
    lookahead invariant). *)

val send : 'msg t -> 'msg -> unit
(** Send a message: schedules the handler on the destination shard at
    [max (now_src + latency) last_delivery] — at least the propagation
    delay, FIFO with earlier sends.
    @raise Invalid_argument on a lookahead violation (the delivery
    instant is already in the destination shard's past — the channel
    was not registered with the cluster, or its latency is below the
    cluster's window length). *)

val messages_sent : 'msg t -> int
(** Messages accepted by {!send} so far. *)

val messages_delivered : 'msg t -> int
(** Messages whose handler has already run (duplicated deliveries
    count, so under faults this can exceed {!messages_sent}). *)

val in_flight : 'msg t -> int
(** Messages sent but neither delivered nor dropped. Can dip below
    zero transiently under duplication faults. *)
