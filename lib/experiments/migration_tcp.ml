module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Fkey = Netcore.Fkey

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
  trace : (Simtime.t * int) list;
}

let run ?(migrate_at = 1.0) ?(duration = 4.0) () =
  let tb = Testbed.create ~server_count:2 () in
  let sender =
    Testbed.add_vm tb (Testbed.vm_spec ~server:0 ~name:"iperf-c" ~ip_last_octet:1 ())
  in
  let receiver =
    Testbed.add_vm tb (Testbed.vm_spec ~server:1 ~name:"iperf-s" ~ip_last_octet:2 ())
  in
  Testbed.connect_tunnels tb;
  let flow =
    Fkey.make
      ~src_ip:(Host.Vm.ip sender.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip receiver.Host.Server.vm)
      ~src_port:5201 ~dst_port:5201 ~proto:Fkey.Tcp
      ~tenant:(Host.Vm.tenant sender.Host.Server.vm)
  in
  let conn = ref None in
  let config =
    {
      Tcpmodel.Tcp_conn.default_config with
      (* A modest receive window keeps the in-flight population at
         migration time near the testbed's (~tens of segments). *)
      Tcpmodel.Tcp_conn.receive_window = 128 * 1024;
    }
  in
  let c =
    Tcpmodel.Tcp_conn.create ~engine:tb.Testbed.engine ~config ~flow
      ~transmit_data:(fun pkt -> Host.Vm.send sender.Host.Server.vm pkt)
      ~transmit_ack:(fun pkt -> Host.Vm.send receiver.Host.Server.vm pkt)
  in
  conn := Some c;
  Host.Vm.register_flow_handler receiver.Host.Server.vm flow (fun pkt ->
      Tcpmodel.Tcp_conn.deliver_to_receiver c pkt);
  Host.Vm.register_flow_handler sender.Host.Server.vm (Fkey.reverse flow)
    (fun pkt -> Tcpmodel.Tcp_conn.deliver_to_sender c pkt);
  (* "Infinite" iperf source. *)
  Tcpmodel.Tcp_conn.send c (1 lsl 33);
  let bytes_at_migration = ref 0 in
  ignore
    (Engine.at tb.Testbed.engine (Simtime.of_sec migrate_at) (fun () ->
         bytes_at_migration := Tcpmodel.Tcp_conn.bytes_acked c;
         (* Offload the forward flow: ToR rules first (make before
            break), then the placer, then drop what is still queued in
            the vswitch (§6.2.2). *)
         let pattern = Fkey.Pattern.exact flow in
         ignore
           (Testbed.pin tb.Testbed.tor sender ~selection:pattern
              ~destinations:[ flow.Fkey.dst_ip ]);
         ignore
           (Host.Bonding.install_rule sender.Host.Server.bonding ~pattern
              ~priority:6 Host.Bonding.Vf);
         Vswitch.Ovs.set_flow_blocked
           (Host.Server.ovs tb.Testbed.servers.(0))
           flow true));
  Testbed.run_for tb ~seconds:duration;
  let bytes_at_end = Tcpmodel.Tcp_conn.bytes_acked c in
  let before = float_of_int !bytes_at_migration *. 8.0 /. migrate_at /. 1e9 in
  let after =
    float_of_int (bytes_at_end - !bytes_at_migration)
    *. 8.0
    /. (duration -. migrate_at)
    /. 1e9
  in
  {
    fast_retransmits = Tcpmodel.Tcp_conn.fast_retransmits c;
    recoveries = Tcpmodel.Tcp_conn.recoveries c;
    timeouts = Tcpmodel.Tcp_conn.timeouts c;
    delayed_acks = Tcpmodel.Tcp_conn.delayed_acks_sent c;
    dupacks = Tcpmodel.Tcp_conn.dupacks_received c;
    bytes_at_migration = !bytes_at_migration;
    bytes_at_end;
    goodput_before_gbps = before;
    goodput_after_gbps = after;
    trace = Tcpmodel.Tcp_conn.sequence_trace c;
  }

let print r =
  Tabular.print_title "Figure 12: TCP progression across flow migration";
  Printf.printf
    "fast retransmits: %d (paper ~30), recoveries: %d (paper: 2), timeouts: %d \
     (paper: 0), delayed acks: %d (paper: 1), dupacks: %d\n"
    r.fast_retransmits r.recoveries r.timeouts r.delayed_acks r.dupacks;
  Printf.printf
    "goodput before migration: %.2f Gb/s; after (hardware path): %.2f Gb/s\n"
    r.goodput_before_gbps r.goodput_after_gbps;
  Printf.printf "sequence trace: %d ack samples, %d -> %d bytes\n"
    (List.length r.trace) r.bytes_at_migration r.bytes_at_end;
  (* A coarse ASCII rendition of Figure 12: acked bytes vs time. *)
  let points = Array.of_list r.trace in
  let n = Array.length points in
  if n > 0 then begin
    let _, last_bytes = points.(n - 1) in
    let columns = 60 and rows = 12 in
    let grid = Array.make_matrix rows columns ' ' in
    Array.iter
      (fun (t, b) ->
        let x =
          Stdlib.min (columns - 1)
            (int_of_float (Simtime.to_sec t /. 4.0 *. float_of_int columns))
        in
        let y =
          Stdlib.min (rows - 1)
            (int_of_float
               (float_of_int b /. float_of_int (Stdlib.max 1 last_bytes)
              *. float_of_int rows))
        in
        grid.(rows - 1 - y).(x) <- '*')
      points;
    Array.iter (fun row -> print_endline (String.init columns (Array.get row))) grid
  end
