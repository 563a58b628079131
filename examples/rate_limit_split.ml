(* FPS rate-limit splitting (§4.1.4): a VM with a contracted 2 Gb/s
   egress limit sends on both paths at once; the local controller's FPS
   loop re-divides the limit between the VIF and the VF in proportion
   to measured demand, with an overflow allowance so a too-tight split
   is detected and corrected.

   Run with: dune exec examples/rate_limit_split.exe *)

module Simtime = Dcsim.Simtime

let () =
  print_endline "FasTrak FPS rate-limit split demo (2 Gb/s contract)";
  let tb = Experiments.Testbed.create ~server_count:2 () in
  let vm =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"limited" ~ip_last_octet:1
         ~tx_limit:(Rules.Rate_limit_spec.gbps 2.0)
         ())
  in
  let sink =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"sink" ~ip_last_octet:2 ())
  in
  Experiments.Testbed.connect_tunnels tb;
  (* Two bulk flows: one stays in software, one is pinned to the VF. *)
  Workloads.Stream.install_sink ~vm:sink.Host.Server.vm ~port:5001 ();
  Workloads.Stream.install_sink ~vm:sink.Host.Server.vm ~port:5002 ();
  let cfg port src =
    {
      (Workloads.Stream.default_config ~dst_ip:(Host.Vm.ip sink.Host.Server.vm)) with
      Workloads.Stream.dst_port = port;
      src_port = src;
      message_size = 32000;
    }
  in
  let soft = Workloads.Stream.start ~engine:tb.Experiments.Testbed.engine
      ~vm:vm.Host.Server.vm (cfg 5001 41001) in
  let hard = Workloads.Stream.start ~engine:tb.Experiments.Testbed.engine
      ~vm:vm.Host.Server.vm (cfg 5002 41002) in
  (* Pin the second flow to the hardware path. *)
  (let pattern =
     {
       (Netcore.Fkey.Pattern.from_vm (Host.Vm.ip vm.Host.Server.vm)
          (Host.Vm.tenant vm.Host.Server.vm))
       with
       Netcore.Fkey.Pattern.src_port = Some 41002;
     }
   in
   ignore
     (Experiments.Testbed.pin tb.Experiments.Testbed.tor vm ~selection:pattern
        ~destinations:[ Host.Vm.ip sink.Host.Server.vm ]);
   ignore
     (Host.Bonding.install_rule vm.Host.Server.bonding ~pattern ~priority:5
        Host.Bonding.Vf));
  let rm =
    Fastrak.Rule_manager.create ~engine:tb.Experiments.Testbed.engine
      ~config:
        {
          Fastrak.Config.default with
          Fastrak.Config.epoch_period = Simtime.span_ms 200.0;
          poll_gap = Simtime.span_ms 80.0;
          (* The demo drives placement by hand; FPS is what we watch. *)
          min_score = infinity;
        }
      ~tor:tb.Experiments.Testbed.tor
      ~servers:(Array.to_list tb.Experiments.Testbed.servers)
      ()
  in
  Fastrak.Rule_manager.start rm;
  let show label =
    let vif_limit = Vswitch.Ovs.vif_tx_limit vm.Host.Server.vif in
    let vf_limit = Nic.Sriov.vf_tx_limit vm.Host.Server.vf in
    let now = Dcsim.Engine.now tb.Experiments.Testbed.engine in
    Printf.printf "  %-12s vif-limit=%-22s vf-limit=%-22s soft=%.2f hard=%.2f Gb/s\n"
      label
      (Format.asprintf "%a" Rules.Rate_limit_spec.pp vif_limit)
      (Format.asprintf "%a" Rules.Rate_limit_spec.pp vf_limit)
      (Workloads.Stream.goodput_gbps soft ~now)
      (Workloads.Stream.goodput_gbps hard ~now);
    Workloads.Stream.reset_measurement soft ~now;
    Workloads.Stream.reset_measurement hard ~now
  in
  Experiments.Testbed.run_for tb ~seconds:0.5;
  show "initial:";
  for i = 1 to 4 do
    Experiments.Testbed.run_for tb ~seconds:0.5;
    show (Printf.sprintf "interval %d:" i)
  done;
  print_endline "  the two limits track demand while summing to ~the contract."
