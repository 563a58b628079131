(* The paper's headline scenario end to end: a memcached service and a
   disk-bound scp share VMs; the FasTrak controllers measure both,
   offload the high-pps memcached aggregates to the ToR mid-run and
   leave the scp trickle in software.

   Run with: dune exec examples/memcached_offload.exe *)

module Simtime = Dcsim.Simtime

let () =
  print_endline "FasTrak memcached offload demo (Table 4 workload, shortened)";
  (* Two memcached VMs + scp on server0, three memslap clients. *)
  let tb = Experiments.Testbed.create ~server_count:4 () in
  let mem_vms =
    List.init 2 (fun i ->
        Experiments.Testbed.add_vm tb
          (Experiments.Testbed.vm_spec ~server:0
             ~name:(Printf.sprintf "memcached%d" i)
             ~ip_last_octet:(10 + i) ()))
  in
  let clients =
    List.init 3 (fun i ->
        Experiments.Testbed.add_vm tb
          (Experiments.Testbed.vm_spec ~server:(i + 1)
             ~name:(Printf.sprintf "memslap%d" i)
             ~ip_last_octet:(100 + i) ()))
  in
  Experiments.Testbed.connect_tunnels tb;
  List.iter
    (fun (a : Host.Server.attached) ->
      Workloads.Memcached.install_server ~vm:a.Host.Server.vm)
    mem_vms;
  (* Background: one disk-bound transfer per memcached VM, via the VIF. *)
  List.iteri
    (fun i (a : Host.Server.attached) ->
      let target = List.nth clients (i mod List.length clients) in
      Workloads.Background.install_scp_sink ~vm:target.Host.Server.vm;
      ignore
        (Workloads.Background.scp ~engine:tb.Experiments.Testbed.engine
           ~vm:a.Host.Server.vm
           ~dst_ip:(Host.Vm.ip target.Host.Server.vm)))
    mem_vms;
  let mem_ips = List.map (fun (a : Host.Server.attached) -> Host.Vm.ip a.vm) mem_vms in
  let memslaps =
    List.map
      (fun (c : Host.Server.attached) ->
        Workloads.Memcached.memslap ~engine:tb.Experiments.Testbed.engine
          ~vm:c.Host.Server.vm ~servers:mem_ips ~concurrency:8
          ~total_requests:None)
      clients
  in
  (* The FasTrak rule manager: local controller per server + TOR
     controller, with a fast control interval for the demo. *)
  let config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period = Simtime.span_ms 250.0;
      poll_gap = Simtime.span_ms 100.0;
      min_score = 1000.0;
    }
  in
  let rm =
    Fastrak.Rule_manager.create ~engine:tb.Experiments.Testbed.engine ~config
      ~tor:tb.Experiments.Testbed.tor
      ~servers:(Array.to_list tb.Experiments.Testbed.servers)
      ()
  in
  Fastrak.Rule_manager.start rm;
  let report label =
    let now = Dcsim.Engine.now tb.Experiments.Testbed.engine in
    let tps =
      List.fold_left
        (fun acc c -> acc +. Workloads.Transactions.Client.tps c ~now)
        0.0 memslaps
    in
    let latency =
      List.fold_left
        (fun acc c -> acc +. Workloads.Transactions.Client.mean_latency_us c)
        0.0 memslaps
      /. 3.0
    in
    Printf.printf "  %-18s offloaded=%-2d  tps=%-8.0f latency=%.0f us\n" label
      (Fastrak.Rule_manager.offloaded_count rm)
      tps latency;
    List.iter
      (fun c -> Workloads.Transactions.Client.reset_measurement c ~now)
      memslaps
  in
  Experiments.Testbed.run_for tb ~seconds:0.5;
  report "before offload:";
  Experiments.Testbed.run_for tb ~seconds:1.0;
  report "detecting...:";
  Experiments.Testbed.run_for tb ~seconds:1.5;
  report "after offload:";
  print_endline "memcached moved to the express lane; scp stayed in software."
