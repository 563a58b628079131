module Engine = Dcsim.Engine
module Cost = Compute.Cost_params

type path = Ovs of Cost.vswitch_config | Sriov of Rules.Rate_limit_spec.t

let path_label = function
  | Ovs config -> Format.asprintf "%a" Cost.pp_config config
  | Sriov limit ->
      if Rules.Rate_limit_spec.is_unlimited limit then "sr-iov"
      else
        Printf.sprintf "sr-iov@%.0fG"
          (limit.Rules.Rate_limit_spec.rate_bps /. 1e9)

type point = {
  path : path;
  size : int;
  throughput_gbps : float;
  rr_mean_us : float;
  rr_p99_us : float;
  burst_tps : float;
  burst_latency_us : float;
}

type setup = {
  tb : Testbed.t;
  client : Host.Server.attached;
  server : Host.Server.attached;
}

let make_setup ?(vif_limit = Rules.Rate_limit_spec.unlimited) ~path () =
  let config = match path with Ovs c -> c | Sriov _ -> Cost.baseline in
  let tb = Testbed.create ~server_count:2 ~config () in
  let limit =
    match path with Ovs _ -> vif_limit | Sriov _ -> Rules.Rate_limit_spec.unlimited
  in
  let client =
    Testbed.add_vm tb
      (Testbed.vm_spec ~server:0 ~name:"client" ~ip_last_octet:1
         ~tx_limit:limit ())
  in
  let server =
    Testbed.add_vm tb
      (Testbed.vm_spec ~server:1 ~name:"server" ~ip_last_octet:2
         ~tx_limit:limit ())
  in
  Testbed.connect_tunnels tb;
  (match path with
  | Ovs _ -> ()
  | Sriov hw_limit ->
      Testbed.force_path_vf tb client;
      Testbed.force_path_vf tb server;
      List.iter
        (fun (a : Host.Server.attached) ->
          match a.vf with
          | Some vf -> Nic.Sriov.set_vf_tx_limit vf hw_limit
          | None -> ())
        [ client; server ]);
  { tb; client; server }

let warmup = 0.4
let measure = 1.0

let measure_throughput ~setup ~size =
  let { tb; client; server } = setup in
  Workloads.Netperf.install_stream_sink ~vm:server.Host.Server.vm;
  let streams =
    Workloads.Netperf.tcp_stream ~engine:tb.Testbed.engine
      ~vm:client.Host.Server.vm
      ~dst_ip:(Host.Vm.ip server.Host.Server.vm)
      ~size ()
  in
  Testbed.run_for tb ~seconds:warmup;
  List.iter
    (fun s -> Workloads.Stream.reset_measurement s ~now:(Engine.now tb.engine))
    streams;
  Testbed.run_for tb ~seconds:measure;
  let now = Engine.now tb.engine in
  List.fold_left (fun acc s -> acc +. Workloads.Stream.goodput_gbps s ~now) 0.0 streams

let measure_rr ~setup ~size =
  let { tb; client; server } = setup in
  Workloads.Netperf.install_rr_server ~vm:server.Host.Server.vm ~response_size:size;
  let c =
    Workloads.Netperf.tcp_rr ~engine:tb.Testbed.engine ~vm:client.Host.Server.vm
      ~dst_ip:(Host.Vm.ip server.Host.Server.vm) ~size
  in
  Testbed.run_for tb ~seconds:warmup;
  Workloads.Transactions.Client.reset_measurement c ~now:(Engine.now tb.engine);
  Testbed.run_for tb ~seconds:measure;
  ( Workloads.Transactions.Client.mean_latency_us c,
    Workloads.Transactions.Client.p99_latency_us c )

let measure_burst ~setup ~size =
  let { tb; client; server } = setup in
  Workloads.Netperf.install_rr_server ~vm:server.Host.Server.vm ~response_size:size;
  let c =
    Workloads.Netperf.burst_rr ~engine:tb.Testbed.engine
      ~vm:client.Host.Server.vm
      ~dst_ip:(Host.Vm.ip server.Host.Server.vm)
      ~size
  in
  Testbed.run_for tb ~seconds:warmup;
  Workloads.Transactions.Client.reset_measurement c ~now:(Engine.now tb.engine);
  Testbed.run_for tb ~seconds:measure;
  ( Workloads.Transactions.Client.tps c ~now:(Engine.now tb.engine),
    Workloads.Transactions.Client.mean_latency_us c )

let run_point ?vif_limit ~path ~size () =
  (* Fresh testbed per shape so measurements never share queues. *)
  let throughput_gbps =
    measure_throughput ~setup:(make_setup ?vif_limit ~path ()) ~size
  in
  let rr_mean_us, rr_p99_us = measure_rr ~setup:(make_setup ?vif_limit ~path ()) ~size in
  let burst_tps, burst_latency_us =
    measure_burst ~setup:(make_setup ?vif_limit ~path ()) ~size
  in
  { path; size; throughput_gbps; rr_mean_us; rr_p99_us; burst_tps; burst_latency_us }

let fig3_paths =
  [
    Ovs Cost.baseline;
    Ovs Cost.with_tunneling;
    Ovs Cost.with_rate_limiting;
    Sriov Rules.Rate_limit_spec.unlimited;
  ]

let fig5_paths = [ Ovs Cost.combined; Sriov (Rules.Rate_limit_spec.gbps 1.0) ]

let run_paths ?vif_limit paths =
  List.concat_map
    (fun path ->
      List.map
        (fun size -> run_point ?vif_limit ~path ~size ())
        Workloads.Netperf.app_data_sizes)
    paths

let run_fig3 () =
  (* The rate-limiting path carries the 10 Gb/s tc limit of §3.2.2. *)
  List.concat_map
    (fun path ->
      let vif_limit =
        match path with
        | Ovs c when c.Cost.rate_limiting -> Some (Rules.Rate_limit_spec.gbps 10.0)
        | _ -> None
      in
      List.map
        (fun size -> run_point ?vif_limit ~path ~size ())
        Workloads.Netperf.app_data_sizes)
    fig3_paths

let run_fig5 () = run_paths ~vif_limit:(Rules.Rate_limit_spec.gbps 1.0) fig5_paths

let print_points ~title points =
  Tabular.print_title title;
  Tabular.print_header
    [ "path"; "size(B)"; "tput(Gb/s)"; "rr-avg(us)"; "rr-99(us)"; "burst-tps";
      "burst-lat(us)" ];
  List.iter
    (fun p ->
      Tabular.print_row
        [
          path_label p.path;
          Tabular.cell_i p.size;
          Tabular.cell_f ~decimals:2 p.throughput_gbps;
          Tabular.cell_f p.rr_mean_us;
          Tabular.cell_f p.rr_p99_us;
          Tabular.cell_f ~decimals:0 p.burst_tps;
          Tabular.cell_f p.burst_latency_us;
        ])
    points
