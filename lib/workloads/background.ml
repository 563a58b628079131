module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine

let scp_port = 22

type scp = { stream : Stream.t }

let install_scp_sink ~vm =
  (* ssh is chatty: roughly one ack per data message, which is how the
     paper sees ~115 incoming pps against ~135 outgoing. *)
  Stream.install_sink ~ack_every:1 ~vm ~port:scp_port ()

(* Periodic duty-cycle noise: every [period], occupy [duty] of it. Uses
   submit (not run_inline) so it genuinely contends with packet
   processing on the same pool. *)
let duty_noise ~engine ~pool ~period ~duty =
  let busy = Simtime.span_scale duty period in
  Engine.every engine period (fun () ->
      Compute.Cpu_pool.submit pool ~cost:busy (fun () -> ());
      `Continue)

let scp ~engine ~vm ~dst_ip ?(rate_bps = 135.0 *. 1448.0 *. 8.0) () =
  let config =
    {
      (Stream.default_config ~dst_ip) with
      Stream.dst_port = scp_port;
      src_port = 46000;
      message_size = 1448;
      window = 64;
      ack_every = 1;
      total_bytes = Some (4 * 1024 * 1024 * 1024);
      paced_rate_bps = Some rate_bps;
    }
  in
  let stream = Stream.start ~engine ~vm config in
  (* Disk-bound: the transfer's real cost is the I/O churn, not the
     trickle of packets. *)
  duty_noise ~engine ~pool:(Host.Vm.kernel vm) ~period:(Simtime.span_ms 1.0)
    ~duty:0.25;
  { stream }

let scp_stream t = t.stream

let iozone ~engine ~vm ~host ?(contended = []) () =
  duty_noise ~engine ~pool:(Host.Vm.apps vm) ~period:(Simtime.span_ms 1.0)
    ~duty:0.6;
  duty_noise ~engine ~pool:(Host.Vm.kernel vm) ~period:(Simtime.span_ms 1.0)
    ~duty:0.35;
  duty_noise ~engine ~pool:host ~period:(Simtime.span_ms 1.0) ~duty:0.2;
  List.iter
    (fun pool ->
      duty_noise ~engine ~pool ~period:(Simtime.span_ms 1.0) ~duty:0.15)
    contended
