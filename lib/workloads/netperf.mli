(** The netperf test shapes used throughout §3.

    - [tcp_stream]: saturating bulk senders (three threads pinned to
      three vCPUs), TCP_NODELAY so each send is a wire unit of the
      configured application data size.
    - [tcp_rr]: single-thread closed-loop request/response — one
      transaction in flight; measures average and 99th-percentile RTT.
    - [burst_rr]: three threads with up to 32 pipelined requests each.

    Application data sizes measured in the paper: 64, 600, 1448 and
    32000 bytes. *)

val app_data_sizes : int list

val install_rr_server : vm:Host.Vm.t -> response_size:int -> unit
(** netperf's echo side: replies with [response_size] bytes. *)

val install_stream_sink : vm:Host.Vm.t -> unit

val tcp_stream :
  engine:Dcsim.Engine.t ->
  vm:Host.Vm.t ->
  dst_ip:Netcore.Ipv4.t ->
  size:int ->
  ?threads:int ->
  unit ->
  Stream.t list
(** Start [threads] (default 3) bulk senders of [size]-byte messages. *)

val tcp_rr :
  engine:Dcsim.Engine.t ->
  vm:Host.Vm.t ->
  dst_ip:Netcore.Ipv4.t ->
  size:int ->
  Transactions.Client.t
(** Closed-loop RR, one outstanding transaction. *)

val burst_rr :
  engine:Dcsim.Engine.t ->
  vm:Host.Vm.t ->
  dst_ip:Netcore.Ipv4.t ->
  size:int ->
  Transactions.Client.t
(** Pipelined RR: 3 connections x 32 outstanding. *)
