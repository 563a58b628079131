(** A one-directional TCP data transfer (sender and receiver endpoints)
    with Reno congestion control.

    The environment owns packet delivery: it receives outgoing segments
    via the [transmit] callbacks and feeds arrivals back with
    {!deliver_to_receiver} / {!deliver_to_sender}. It is free to delay,
    drop or reorder packets — which is exactly what flow migration does
    to in-flight packets (§6.2.2) and what Figure 12 visualises.

    Implemented behaviour: slow start, congestion avoidance, duplicate
    acks, fast retransmit + fast recovery on 3 dupacks, retransmission
    timeout with exponential backoff, delayed acks (one ack per two
    segments or a 40 ms timer), SRTT/RTTVAR-based RTO (RFC 6298). *)

type config = {
  mss : int;
  init_cwnd_segments : int;
  rto_min : Dcsim.Simtime.span;
  delayed_ack_timeout : Dcsim.Simtime.span;
  receive_window : int;  (** Bytes; caps the flight size. *)
}

val default_config : config

type t

val create :
  engine:Dcsim.Engine.t ->
  config:config ->
  flow:Netcore.Fkey.t ->
  transmit_data:(Netcore.Packet.t -> unit) ->
  transmit_ack:(Netcore.Packet.t -> unit) ->
  t
(** [flow] is the forward (data) direction; acks travel on the reverse
    key. The transmit callbacks fire whenever an endpoint emits a
    segment; they must not call back into the connection synchronously
    (schedule deliveries through the engine instead). *)

val send : t -> int -> unit
(** Append bytes to the application send queue; transmission starts (or
    resumes) immediately, subject to cwnd. *)

val deliver_to_receiver : t -> Netcore.Packet.t -> unit
(** Hand a data segment to the receiving endpoint. *)

val deliver_to_sender : t -> Netcore.Packet.t -> unit
(** Hand an ack segment to the sending endpoint. *)

val on_delivered : t -> (int -> unit) -> unit
(** Register a callback invoked with the cumulative in-order byte count
    whenever it advances (application-level delivery watermark). *)

(* Introspection *)

val bytes_acked : t -> int
val bytes_queued : t -> int
(** Bytes accepted by [send] and not yet acked. *)

val cwnd : t -> int
val ssthresh : t -> int
val in_flight : t -> int
val fast_retransmits : t -> int
(** Segments retransmitted by the fast-recovery machinery (3-dupack
    entry plus NewReno partial acks) — what netstat reports as "fast
    retransmits" in §6.2.2. *)

val recoveries : t -> int
(** Fast-recovery episodes entered ("TCP recovered twice from packet
    loss"). *)

val timeouts : t -> int
val dupacks_received : t -> int
val delayed_acks_sent : t -> int
val srtt : t -> Dcsim.Simtime.span option

val sequence_trace : t -> (Dcsim.Simtime.t * int) list
(** (time, highest cumulatively-acked byte) samples recorded at every
    ack arrival — the data behind Figure 12. *)
