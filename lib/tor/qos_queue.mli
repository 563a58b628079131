(** Strict-priority egress queues in front of a link (§4.1.3: "L3
    routers typically provide a set of QoS queues").

    Packets are enqueued into one of N classes; the highest non-empty
    class transmits first. The multiplexer hands the link one packet at
    a time and takes its pacing from the link: it sends the next packet
    after the serialisation span {!Fabric.Link.transmit} returns, so
    the link never builds its own queue — priority therefore actually
    matters under contention. *)

type t

val create : engine:Dcsim.Engine.t -> classes:int -> link:Fabric.Link.t -> t
(** [classes] priority queues multiplexed onto [link], paced at the
    link's rate. @raise Invalid_argument when [classes <= 0]. *)

val enqueue : t -> queue:int -> Netcore.Packet.t -> unit
(** [queue] is clamped to [0, classes). Higher index = higher priority. *)

val packets_sent : t -> int
(** Packets handed to the link since creation. *)
