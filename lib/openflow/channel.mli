(** A simulated control channel with delivery latency.

    Connects FasTrak controllers to each other and to the datapath
    elements they program. By default messages are delivered in order
    after a fixed latency and the channel is reliable.

    Passing [?faults] puts the channel in {b unreliable mode}: each
    send consults the {!Faults.Injector.t} and may be dropped (counted
    in the [openflow.channel.drops] metric and announced as a
    {!Obs.Trace.Ctrl_drop} event), delayed by extra jitter, duplicated,
    or delivered out of order (a reordered or duplicated copy skips the
    FIFO clamp and may overtake earlier sends). Protocol code above the
    channel — sequence numbers, acks, retries — is responsible for
    surviving these faults; the channel itself makes no delivery
    guarantee in unreliable mode.

    A channel created without [?faults] takes exactly the historical
    reliable code path, so fault-free runs are byte-identical to builds
    predating the fault machinery. *)

type 'msg t

val create :
  ?name:string ->
  ?faults:Faults.Injector.t ->
  engine:Dcsim.Engine.t ->
  latency:Dcsim.Simtime.span ->
  handler:('msg -> unit) ->
  unit ->
  'msg t
(** [name] labels the channel in [Ctrl_drop] trace events (default
    ["chan"]); [faults] enables unreliable mode. *)

val send : 'msg t -> 'msg -> unit
val messages_sent : 'msg t -> int
