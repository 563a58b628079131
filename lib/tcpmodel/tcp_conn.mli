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
    segments or a 40 ms timer), SRTT/RTTVAR-based RTO (RFC 6298).

    Every connection segments at {!Netcore.Hdr.max_tcp_payload} bytes,
    starts with a 10-segment congestion window and never lets its RTO
    fall below 200 ms. *)

type t

val create :
  engine:Dcsim.Engine.t ->
  ?receive_window:int ->
  flow:Netcore.Fkey.t ->
  transmit_data:(Netcore.Packet.t -> unit) ->
  transmit_ack:(Netcore.Packet.t -> unit) ->
  unit ->
  t
(** [flow] is the forward (data) direction; acks travel on the reverse
    key. [receive_window] (bytes, default 1 MiB) caps the flight size.
    The transmit callbacks fire whenever an endpoint emits a segment;
    they must not call back into the connection synchronously (schedule
    deliveries through the engine instead). *)

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

(** The (time, highest cumulatively-acked byte) samples a connection
    records at every ack that advances it — the data behind Figure 12.

    Samples are stored unboxed in chunks of 4,096, each one int array
    holding time in nanoseconds and acked bytes side by side: 2 words
    per sample, plus one chunk allocated only when a sample needs it and
    a spine of chunk pointers. Recording a sample allocates nothing, and
    no sample is ever copied or reversed. *)
module Trace : sig
  type t
  (** A read-only view of the samples, oldest first. *)

  val length : t -> int

  val iter : (Dcsim.Simtime.t -> int -> unit) -> t -> unit
  (** [iter f trace] calls [f time acked_bytes] on every sample, oldest
      first, without boxing any of them. *)
end

val sequence_trace : t -> Trace.t
(** The samples recorded so far. Later acks do not show in the returned
    view, and taking it copies no sample. *)
