module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime

type row = {
  label : string;
  tps_aggregate : float;
  tps_per_client : float;
  mean_latency_us : float;
  finish_time_s : float option;
  cpus : float;
}

let requests_scale = ref 0.1
let client_count = 5
let client_concurrency = 8  (* memslap: 8 outstanding per client, split over the servers *)

type setup = {
  tb : Testbed.t;
  mem_vms : Host.Server.attached list;
  clients : Workloads.Transactions.Client.t list;
}

(* server 0: memcached VMs (+ optional IOzone VM); servers 1-5: one
   client VM each. [vf_indices] selects which memcached VMs are pinned
   to the hardware path. *)
let build ?(tcam_capacity = 2048) ~mem_vm_count ~vf_indices ~background
    ~total_requests () =
  let tb = Testbed.create ~server_count:(client_count + 1) ~tcam_capacity () in
  let mem_vms =
    List.init mem_vm_count (fun i ->
        (* Two large + two medium instances in the Table 2/3 setup. *)
        let vcpus = if mem_vm_count = 4 && i >= 2 then 2 else 4 in
        Testbed.add_vm tb
          (Testbed.vm_spec ~server:0 ~vcpus
             ~name:(Printf.sprintf "memcached%d" i)
             ~ip_last_octet:(10 + i) ()))
  in
  let client_vms =
    List.init client_count (fun i ->
        Testbed.add_vm tb
          (Testbed.vm_spec ~server:(i + 1)
             ~name:(Printf.sprintf "memslap%d" i)
             ~ip_last_octet:(100 + i) ()))
  in
  List.iteri
    (fun i a -> if List.mem i vf_indices then Testbed.force_path_vf tb a)
    mem_vms;
  List.iter
    (fun (a : Host.Server.attached) ->
      Workloads.Memcached.install_server ~vm:a.Host.Server.vm)
    mem_vms;
  (match background with
  | `None -> ()
  | `Iozone ->
      let bg =
        Testbed.add_vm tb
          (Testbed.vm_spec ~server:0 ~name:"iozone" ~ip_last_octet:40 ())
      in
      (* Three VMs pinned to four CPUs: IOzone contends with the
         memcached guests' kernel vCPUs and their vhost threads. *)
      let contended =
        List.concat_map
          (fun (a : Host.Server.attached) ->
            [ Host.Vm.kernel a.vm; Vswitch.Ovs.vif_vhost_pool a.vif ])
          mem_vms
      in
      Workloads.Background.iozone ~engine:tb.Testbed.engine
        ~vm:bg.Host.Server.vm
        ~host:(Host.Server.host_pool tb.Testbed.servers.(0))
        ~contended ()
  | `Scp ->
      (* One disk-bound transfer per memcached VM, over the VIF, to a
         distinct client server (§6.1.2). *)
      List.iteri
        (fun i (a : Host.Server.attached) ->
          let target = List.nth client_vms (i mod client_count) in
          Workloads.Background.install_scp_sink ~vm:target.Host.Server.vm;
          ignore
            (Workloads.Background.scp ~engine:tb.Testbed.engine
               ~vm:a.Host.Server.vm
               ~dst_ip:(Host.Vm.ip target.Host.Server.vm)
               ()))
        mem_vms);
  let server_ips =
    List.map (fun (a : Host.Server.attached) -> Host.Vm.ip a.Host.Server.vm) mem_vms
  in
  let concurrency = Stdlib.max 1 (client_concurrency / mem_vm_count) in
  let clients =
    List.map
      (fun (c : Host.Server.attached) ->
        Workloads.Memcached.memslap ~engine:tb.Testbed.engine
          ~vm:c.Host.Server.vm ~servers:server_ips ~concurrency ~total_requests)
      client_vms
  in
  { tb; mem_vms; clients }

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Steady-state run (Table 1): warm up, measure a fixed window. *)
let run_steady ~label setup =
  let { tb; clients; _ } = setup in
  let warmup = 1.0 and window = 3.0 in
  Testbed.run_for tb ~seconds:warmup;
  Host.Server.reset_cpu_accounting tb.Testbed.servers.(0);
  List.iter
    (fun c ->
      Workloads.Transactions.Client.reset_measurement c
        ~now:(Engine.now tb.Testbed.engine))
    clients;
  Testbed.run_for tb ~seconds:window;
  let now = Engine.now tb.Testbed.engine in
  let tps = List.map (fun c -> Workloads.Transactions.Client.tps c ~now) clients in
  {
    label;
    tps_aggregate = List.fold_left ( +. ) 0.0 tps;
    tps_per_client = mean tps;
    mean_latency_us =
      mean (List.map Workloads.Transactions.Client.mean_latency_us clients);
    finish_time_s = None;
    cpus =
      Host.Server.total_cpus_used tb.Testbed.servers.(0)
        ~over:(Simtime.span_sec window);
  }

(* Finish-time run (Tables 2-4): run until every client has issued its
   full request budget, or for at most [time_cap] simulated seconds. *)
let time_cap = 300.0

let run_to_finish ~label setup =
  let { tb; clients; _ } = setup in
  let start = Engine.now tb.Testbed.engine in
  Host.Server.reset_cpu_accounting tb.Testbed.servers.(0);
  let all_done () =
    List.for_all
      (fun c -> Workloads.Transactions.Client.finish_time c <> None)
      clients
  in
  let elapsed () =
    Simtime.span_to_sec (Simtime.diff (Engine.now tb.Testbed.engine) start)
  in
  while (not (all_done ())) && elapsed () < time_cap do
    Testbed.run_for tb ~seconds:1.0
  done;
  let now = Engine.now tb.Testbed.engine in
  let finish_seconds =
    List.map
      (fun c ->
        match Workloads.Transactions.Client.finish_time c with
        | Some t -> Simtime.span_to_sec (Simtime.diff t start)
        | None -> time_cap)
      clients
  in
  let tps = List.map (fun c -> Workloads.Transactions.Client.tps c ~now) clients in
  {
    label;
    tps_aggregate = List.fold_left ( +. ) 0.0 tps;
    tps_per_client = mean tps;
    mean_latency_us =
      mean (List.map Workloads.Transactions.Client.mean_latency_us clients);
    (* Normalise back to the paper's 2M requests per client. *)
    finish_time_s = Some (mean finish_seconds /. !requests_scale);
    cpus =
      Host.Server.total_cpus_used tb.Testbed.servers.(0)
        ~over:(Simtime.diff now start);
  }

let run_table1 () =
  let case ~label ~vf ~background =
    let vf_indices = if vf then [ 0; 1 ] else [] in
    run_steady ~label
      (build ~mem_vm_count:2 ~vf_indices ~background ~total_requests:None ())
  in
  [
    case ~label:"1a: VIF" ~vf:false ~background:`None;
    case ~label:"1a: SR-IOV VF" ~vf:true ~background:`None;
    case ~label:"1b: VIF+bg" ~vf:false ~background:`Iozone;
    case ~label:"1b: VF+bg" ~vf:true ~background:`Iozone;
  ]

let finish_requests () = Some (int_of_float (2_000_000.0 *. !requests_scale))

let run_table2 () =
  let case ~label ~vf_indices =
    run_to_finish ~label
      (build ~mem_vm_count:4 ~vf_indices ~background:`None
         ~total_requests:(finish_requests ()) ())
  in
  [
    case ~label:"100% VIF" ~vf_indices:[];
    case ~label:"75% VIF" ~vf_indices:[ 0 ];
    case ~label:"50% VIF" ~vf_indices:[ 0; 1 ];
    case ~label:"25% VIF" ~vf_indices:[ 0; 1; 2 ];
    case ~label:"0% VIF" ~vf_indices:[ 0; 1; 2; 3 ];
  ]

let run_table3 () =
  let case ~label ~vf_indices =
    run_to_finish ~label
      (build ~mem_vm_count:4 ~vf_indices ~background:`Scp
         ~total_requests:(finish_requests ()) ())
  in
  [
    case ~label:"VIF" ~vf_indices:[];
    case ~label:"SR-IOV VF" ~vf_indices:[ 0; 1; 2; 3 ];
  ]

let print_rows ~title rows =
  Tabular.print_title title;
  Tabular.print_header
    [ "case"; "tps(total)"; "tps/client"; "latency(us)"; "finish(s)"; "cpus" ];
  List.iter
    (fun r ->
      Tabular.print_row
        [
          r.label;
          Tabular.cell_f ~decimals:0 r.tps_aggregate;
          Tabular.cell_f ~decimals:0 r.tps_per_client;
          Tabular.cell_f r.mean_latency_us;
          (match r.finish_time_s with
          | Some f -> Tabular.cell_f f
          | None -> "-");
          Tabular.cell_f ~decimals:2 r.cpus;
        ])
    rows
