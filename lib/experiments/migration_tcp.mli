(** Figure 12 / §6.2.2: what flow migration does to a live TCP flow.

    A single bulk TCP connection (the paper uses iperf) starts on the
    software path; one second in, its rules are offloaded: VRF entries
    installed, the flow placer switched to the VF, and the packets
    still inside the vswitch pipeline dropped. The paper observes one
    delayed ack, two loss-recovery episodes, ~30 fast retransmits, and
    — crucially — no timeouts: the connection progresses throughout. *)

type result = {
  fast_retransmits : int;
  recoveries : int;
  timeouts : int;
  delayed_acks : int;
  dupacks : int;
  bytes_at_migration : int;
  bytes_at_end : int;
  goodput_before_gbps : float;
  goodput_after_gbps : float;
  trace : Tcpmodel.Tcp_conn.Trace.t;
      (** (time, acked bytes) at every ack that advanced the flow — the
          Figure 12 sequence progression, 2 words per sample. *)
}

val run : ?migrate_at:float -> ?duration:float -> unit -> result
(** Defaults: migrate at 1 s, run for 4 s total. *)

val print : result -> unit
