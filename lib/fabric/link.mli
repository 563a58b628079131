(** A unidirectional link: FIFO serialization at a fixed rate plus a
    fixed propagation/forwarding latency.

    The serialization stage is a single-server queue, so concurrent
    senders on the same port contend — this is where wire-level
    congestion appears in the model. Messages larger than one MTU frame
    occupy the wire for the total of their frames (TSO burst).

    A link is reliable: injected faults ride {!Channel}, the one
    fabric attach point for a {!Faults.Injector}. *)

type t

val create :
  engine:Dcsim.Engine.t ->
  gbps:float ->
  latency:Dcsim.Simtime.span ->
  deliver:(Netcore.Packet.t -> unit) ->
  t
(** A link serialising at [gbps], then delaying each message by
    [latency] before handing it to [deliver]. *)

val wire_bytes : Netcore.Packet.t -> int
(** On-the-wire bytes of a message: payload plus per-frame headers,
    encapsulation overheads, preamble and IFG for every MTU-sized frame
    the message occupies. *)

val transmit : t -> Netcore.Packet.t -> Dcsim.Simtime.span
(** Enqueue a message for serialisation; it is delivered one
    serialisation delay plus [latency] after the wire frees up.
    Returns the serialisation delay charged, so a sender that paces
    itself on it never finds the wire busy. *)

val packets_sent : t -> int
(** Messages fully serialised so far. *)

val queue_length : t -> int
(** Messages waiting for the wire, not counting the one in flight. *)
