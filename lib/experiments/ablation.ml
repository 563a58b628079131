module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Fkey = Netcore.Fkey

type scoring_row = {
  policy : string;
  offloaded : string;
  tps : float;
  latency_us : float;
  cpus : float;
}

(* Pin the scp flows (rather than the memcached service) of every
   memcached VM to the hardware path — the "elephant-first" policy. *)
let offload_scp_flows (setup : Memcached_eval.setup) =
  let tb = setup.Memcached_eval.tb in
  Testbed.connect_tunnels tb;
  List.iter
    (fun (a : Host.Server.attached) ->
      let tenant = Host.Vm.tenant a.vm in
      let pattern =
        {
          (Fkey.Pattern.from_vm (Host.Vm.ip a.vm) tenant) with
          Fkey.Pattern.src_port = Some 46000;
        }
      in
      ignore
        (Testbed.pin tb.Testbed.tor a ~selection:pattern
           ~destinations:(Testbed.peer_ips tb a));
      ignore
        (Host.Bonding.install_rule a.bonding ~pattern ~priority:5
           Host.Bonding.Vf))
    setup.Memcached_eval.mem_vms

let run_scoring () =
  let case ~policy ~offloaded ~vf_indices ~scp_via_vf =
    let setup =
      Memcached_eval.build ~mem_vm_count:4 ~vf_indices ~background:`Scp
        ~total_requests:None ()
    in
    if scp_via_vf then offload_scp_flows setup;
    let tb = setup.Memcached_eval.tb in
    Testbed.run_for tb ~seconds:1.0;
    Host.Server.reset_cpu_accounting tb.Testbed.servers.(0);
    List.iter
      (fun c ->
        Workloads.Transactions.Client.reset_measurement c
          ~now:(Engine.now tb.Testbed.engine))
      setup.Memcached_eval.clients;
    Testbed.run_for tb ~seconds:2.0;
    let now = Engine.now tb.Testbed.engine in
    let clients = setup.Memcached_eval.clients in
    let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
    {
      policy;
      offloaded;
      tps =
        List.fold_left
          (fun acc c -> acc +. Workloads.Transactions.Client.tps c ~now)
          0.0 clients;
      latency_us =
        mean (List.map Workloads.Transactions.Client.mean_latency_us clients);
      cpus =
        Host.Server.total_cpus_used tb.Testbed.servers.(0)
          ~over:(Simtime.span_sec 2.0);
    }
  in
  [
    case ~policy:"no offload" ~offloaded:"nothing" ~vf_indices:[] ~scp_via_vf:false;
    case ~policy:"S = n x m_pps" ~offloaded:"memcached" ~vf_indices:[ 0; 1; 2; 3 ]
      ~scp_via_vf:false;
    case ~policy:"bytes (elephant)" ~offloaded:"scp" ~vf_indices:[]
      ~scp_via_vf:true;
  ]

type tcam_row = { capacity : int; offloaded_aggregates : int; latency_us : float }

let fastrak_config () =
  {
    Fastrak.Config.default with
    Fastrak.Config.epoch_period = Simtime.span_sec 0.1;
    poll_gap = Simtime.span_sec 0.04;
    min_score = 1000.0;
  }

let run_tcam ~capacities () =
  List.map
    (fun capacity ->
      let setup =
        Memcached_eval.build ~tcam_capacity:capacity ~mem_vm_count:4
          ~vf_indices:[] ~background:`Scp ~total_requests:None ()
      in
      let tb = setup.Memcached_eval.tb in
      let rm =
        Fastrak.Rule_manager.create ~engine:tb.Testbed.engine
          ~config:(fastrak_config ()) ~tor:tb.Testbed.tor
          ~servers:(Array.to_list tb.Testbed.servers)
          ()
      in
      Testbed.connect_tunnels tb;
      Fastrak.Rule_manager.start rm;
      Testbed.run_for tb ~seconds:1.0;
      List.iter
        (fun c ->
          Workloads.Transactions.Client.reset_measurement c
            ~now:(Engine.now tb.Testbed.engine))
        setup.Memcached_eval.clients;
      Testbed.run_for tb ~seconds:1.5;
      let clients = setup.Memcached_eval.clients in
      let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      {
        capacity;
        offloaded_aggregates = Fastrak.Rule_manager.offloaded_count rm;
        latency_us =
          mean (List.map Workloads.Transactions.Client.mean_latency_us clients);
      })
    capacities

type interval_row = { epoch_sec : float; first_offload_sec : float option }

let run_interval ~epochs () =
  List.map
    (fun epoch_sec ->
      let setup =
        Memcached_eval.build ~mem_vm_count:4 ~vf_indices:[] ~background:`Scp
          ~total_requests:None ()
      in
      let tb = setup.Memcached_eval.tb in
      let config =
        {
          (fastrak_config ()) with
          Fastrak.Config.epoch_period = Simtime.span_sec epoch_sec;
          poll_gap = Simtime.span_sec (Float.min 0.1 (epoch_sec /. 2.5));
        }
      in
      let rm =
        Fastrak.Rule_manager.create ~engine:tb.Testbed.engine ~config
          ~tor:tb.Testbed.tor
          ~servers:(Array.to_list tb.Testbed.servers)
          ()
      in
      Testbed.connect_tunnels tb;
      Fastrak.Rule_manager.start rm;
      let first = ref None in
      Engine.every tb.Testbed.engine (Simtime.span_ms 10.0) (fun () ->
          if !first = None && Fastrak.Rule_manager.offloaded_count rm > 0 then
            first := Some (Simtime.to_sec (Engine.now tb.Testbed.engine));
          `Continue);
      Testbed.run_for tb ~seconds:(8.0 *. epoch_sec +. 1.0);
      { epoch_sec; first_offload_sec = !first })
    epochs

let print_scoring rows =
  Tabular.print_title "Ablation: offload-selection policy (Table 3 workload)";
  Tabular.print_header [ "policy"; "offloads"; "tps(total)"; "latency(us)"; "cpus" ];
  List.iter
    (fun r ->
      Tabular.print_row
        [ r.policy; r.offloaded; Tabular.cell_f ~decimals:0 r.tps;
          Tabular.cell_f r.latency_us; Tabular.cell_f ~decimals:2 r.cpus ])
    rows

let print_tcam rows =
  Tabular.print_title "Ablation: TCAM capacity vs offload benefit";
  Tabular.print_header [ "tcam"; "offloaded"; "latency(us)" ];
  List.iter
    (fun r ->
      Tabular.print_row
        [ Tabular.cell_i r.capacity; Tabular.cell_i r.offloaded_aggregates;
          Tabular.cell_f r.latency_us ])
    rows

let print_interval rows =
  Tabular.print_title "Ablation: control interval vs detection delay";
  Tabular.print_header [ "epoch T(s)"; "first offload(s)" ];
  List.iter
    (fun r ->
      Tabular.print_row
        [ Tabular.cell_f ~decimals:2 r.epoch_sec;
          (match r.first_offload_sec with
          | Some s -> Tabular.cell_f ~decimals:2 s
          | None -> "never") ])
    rows
