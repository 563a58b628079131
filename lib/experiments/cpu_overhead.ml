module Engine = Dcsim.Engine
module Cost = Compute.Cost_params

type point = {
  label : string;
  size : int;
  aggregate_gbps : float;
  cpus_total : float;
  cpus_host : float;
}

let warmup = 0.4
let measure = 1.0

let run_case ~label ~config ~sriov ?(vm_count = 4)
    ?(vif_limit = Rules.Rate_limit_spec.unlimited)
    ?(vf_limit = Rules.Rate_limit_spec.unlimited) ~size () =
  (* Server 0 hosts the test VMs; each sink VM lives on its own server
     so the remote side is never the bottleneck. *)
  let tb = Testbed.create ~server_count:(vm_count + 1) ~config () in
  let pairs =
    List.init vm_count (fun i ->
        let sender =
          Testbed.add_vm tb
            (Testbed.vm_spec ~server:0
               ~name:(Printf.sprintf "tx%d" i)
               ~ip_last_octet:(10 + i) ~tx_limit:vif_limit ())
        in
        let sink =
          Testbed.add_vm tb
            (Testbed.vm_spec ~server:(i + 1)
               ~name:(Printf.sprintf "rx%d" i)
               ~ip_last_octet:(50 + i) ())
        in
        (sender, sink))
  in
  Testbed.connect_tunnels tb;
  if sriov then
    List.iter
      (fun ((sender : Host.Server.attached), (sink : Host.Server.attached)) ->
        Testbed.force_path_vf tb sender;
        Testbed.force_path_vf tb sink;
        Nic.Sriov.set_vf_tx_limit sender.vf vf_limit)
      pairs;
  let streams =
    List.concat_map
      (fun ((sender : Host.Server.attached), (sink : Host.Server.attached)) ->
        Workloads.Netperf.install_stream_sink ~vm:sink.Host.Server.vm;
        Workloads.Netperf.tcp_stream ~engine:tb.Testbed.engine
          ~vm:sender.Host.Server.vm
          ~dst_ip:(Host.Vm.ip sink.Host.Server.vm)
          ~size ~threads:1 ())
      pairs
  in
  Testbed.run_for tb ~seconds:warmup;
  let test_server = tb.Testbed.servers.(0) in
  Host.Server.reset_cpu_accounting test_server;
  List.iter
    (fun s -> Workloads.Stream.reset_measurement s ~now:(Engine.now tb.engine))
    streams;
  Testbed.run_for tb ~seconds:measure;
  let now = Engine.now tb.engine in
  let aggregate_gbps =
    List.fold_left (fun acc s -> acc +. Workloads.Stream.goodput_gbps s ~now) 0.0 streams
  in
  let over = Dcsim.Simtime.span_sec measure in
  {
    label;
    size;
    aggregate_gbps;
    cpus_total = Host.Server.total_cpus_used test_server ~over;
    cpus_host = Host.Server.host_cpus_used test_server ~over;
  }

let run_fig4a () =
  List.concat_map
    (fun size ->
      [
        run_case ~label:"baseline" ~config:Cost.baseline ~sriov:false ~size ();
        run_case ~label:"ovs+tunneling" ~config:Cost.with_tunneling ~sriov:false
          ~size ();
        (* §3.2.2: 5 Gb/s limit per VM, three VMs: 1.5x oversubscribed. *)
        run_case ~label:"ovs+rate-limit" ~config:Cost.with_rate_limiting
          ~sriov:false ~vm_count:3
          ~vif_limit:(Rules.Rate_limit_spec.gbps 5.0)
          ~size ();
        run_case ~label:"sr-iov" ~config:Cost.baseline ~sriov:true ~size ();
      ])
    Workloads.Netperf.app_data_sizes

let run_fig4b () =
  List.concat_map
    (fun size ->
      [
        run_case ~label:"ovs-combined@1G" ~config:Cost.combined ~sriov:false
          ~vif_limit:(Rules.Rate_limit_spec.gbps 1.0)
          ~size ();
        run_case ~label:"sr-iov@1G" ~config:Cost.baseline ~sriov:true
          ~vf_limit:(Rules.Rate_limit_spec.gbps 1.0)
          ~size ();
      ])
    Workloads.Netperf.app_data_sizes

let print_points ~title points =
  Tabular.print_title title;
  Tabular.print_header
    [ "config"; "size(B)"; "agg(Gb/s)"; "cpus-total"; "cpus-host" ];
  List.iter
    (fun p ->
      Tabular.print_row
        [
          p.label;
          Tabular.cell_i p.size;
          Tabular.cell_f ~decimals:2 p.aggregate_gbps;
          Tabular.cell_f ~decimals:2 p.cpus_total;
          Tabular.cell_f ~decimals:2 p.cpus_host;
        ])
    points
