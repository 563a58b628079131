(** Strict-priority egress queues in front of a link (§4.1.3: "L3
    routers typically provide a set of QoS queues").

    Packets are enqueued into one of N classes; the highest non-empty
    class transmits first. The multiplexer paces itself at the link
    rate so the underlying {!Fabric.Link} never builds its own queue —
    priority therefore actually matters under contention. *)

type t

val create :
  engine:Dcsim.Engine.t -> classes:int -> link:Fabric.Link.t -> gbps:float -> t
(** [classes] priority queues multiplexed onto [link], paced at [gbps].
    @raise Invalid_argument when [classes <= 0]. *)

val classes : t -> int
(** The number of priority classes. *)

val enqueue : t -> queue:int -> Netcore.Packet.t -> unit
(** [queue] is clamped to [0, classes). Higher index = higher priority. *)

val queue_length : t -> queue:int -> int
(** Packets waiting in class [queue] (0 for an out-of-range class). *)

val packets_sent : t -> int
(** Packets handed to the link since creation. *)
