(** The egress queue of a ToR port: one FIFO in front of a link.

    The queue hands the link one packet at a time and takes its pacing
    from the link: it sends the next packet after the serialisation
    span {!Fabric.Link.transmit} returns, so the link never builds its
    own queue and packets leave in arrival order. The [tor.qos.*]
    metrics count this FIFO. *)

type t

val create : engine:Dcsim.Engine.t -> link:Fabric.Link.t -> t
(** An empty FIFO feeding [link], paced at the link's rate. *)

val enqueue : t -> Netcore.Packet.t -> unit
(** Append a packet; it is sent once every earlier packet has been. *)

val packets_sent : t -> int
(** Packets handed to the link since creation. *)
