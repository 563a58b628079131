module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4

type t = {
  engine : Engine.t;
  tor : Tor.Tor_switch.t;
  servers : Host.Server.t array;
}

let default_tenant = Netcore.Tenant.of_int 7

let server_ip ?(rack = 0) index = Ipv4.of_octets 192 168 (1 + rack) (10 + index)
let tor_address ?(rack = 0) () = Ipv4.of_octets 192 168 0 (1 + rack)

let create ?engine ?(seed = 42) ?(config = Compute.Cost_params.baseline)
    ?(server_count = 6) ?(tcam_capacity = 2048) ?(rack = 0)
    ?(name_prefix = "") () =
  let engine =
    match engine with Some e -> e | None -> Engine.create ~seed ()
  in
  (* Emission sites below the engine (TCAM, VRF) stamp events with the
     registered clock; the newest testbed's engine wins. Multi-rack
     builders override this with the cluster clock afterwards. *)
  Obs.Trace.set_clock (fun () -> Engine.now engine);
  let tor =
    Tor.Tor_switch.create ~engine ~ip:(tor_address ~rack ()) ~tcam_capacity
  in
  let servers =
    Array.init server_count (fun i ->
        Host.Server.create ~engine
          ~name:(Printf.sprintf "%sserver%d" name_prefix i)
          ~ip:(server_ip ~rack i) ~config ~tor)
  in
  { engine; tor; servers }

type vm_spec = {
  server : int;
  vm_name : string;
  vcpus : int;
  tenant : Netcore.Tenant.id;
  ip_last_octet : int;
  tx_limit : Rules.Rate_limit_spec.t;
  rx_limit : Rules.Rate_limit_spec.t;
  sriov : bool;
  acl_count : int;
}

let vm_spec ?(vcpus = 4) ?(tenant = default_tenant)
    ?(tx_limit = Rules.Rate_limit_spec.unlimited)
    ?(rx_limit = Rules.Rate_limit_spec.unlimited) ?(sriov = true)
    ?(acl_count = 0) ~server ~name ~ip_last_octet () =
  {
    server;
    vm_name = name;
    vcpus;
    tenant;
    ip_last_octet;
    tx_limit;
    rx_limit;
    sriov;
    acl_count;
  }

let vm_ip ~tenant ~last_octet =
  Ipv4.of_octets 10 (Netcore.Tenant.to_int tenant land 0xFF) 0 last_octet

let add_vm t spec =
  if spec.server < 0 || spec.server >= Array.length t.servers then
    invalid_arg "Testbed.add_vm: bad server index";
  let ip = vm_ip ~tenant:spec.tenant ~last_octet:spec.ip_last_octet in
  let vm =
    Host.Vm.create ~engine:t.engine ~name:spec.vm_name ~vcpus:spec.vcpus
      ~tenant:spec.tenant ~ip
      ~mac:(Netcore.Mac.vm_mac ~server:spec.server ~vm:spec.ip_last_octet)
  in
  let policy =
    Rules.Policy.create ~tenant:spec.tenant ~vm_ip:ip ~tx_limit:spec.tx_limit
      ~rx_limit:spec.rx_limit ()
  in
  Rules.Policy.add_acl policy (Rules.Security_rule.allow_all spec.tenant);
  (* Placing a VM registers its contracted tx rate with the SLO
     scoreboard: one add per VM, summed per tenant (an unlimited VM
     absorbs the tenant's sum into "unlimited"). *)
  Obs.Slo.add_contract
    ~tenant:(Netcore.Tenant.to_int spec.tenant)
    ~tx_bps:spec.tx_limit.Rules.Rate_limit_spec.rate_bps ();
  (* Extra specific rules to exercise slow-path scan cost: allow rules
     on distinct ports that real traffic never matches first. *)
  for i = 1 to spec.acl_count do
    Rules.Policy.add_acl policy
      (Rules.Security_rule.make ~priority:2
         { Fkey.Pattern.any with
           tenant = Some spec.tenant;
           dst_port = Some (20000 + i);
         }
         Rules.Security_rule.Allow)
  done;
  Host.Server.add_vm t.servers.(spec.server) ~vm ~policy ~sriov:spec.sriov

let all_attached t =
  Array.to_list t.servers |> List.concat_map (fun s -> Host.Server.vms s)

let peer_ips t (a : Host.Server.attached) =
  all_attached t
  |> List.filter_map (fun (p : Host.Server.attached) ->
         let ip = Host.Vm.ip p.vm in
         if Ipv4.equal ip (Host.Vm.ip a.vm) then None else Some ip)

let server_of_vm t vm_ip =
  Array.to_list t.servers
  |> List.find_opt (fun s -> Host.Server.find_attached s ~vm_ip <> None)

let connect_tunnels t =
  let attached = all_attached t in
  List.iter
    (fun (a : Host.Server.attached) ->
      let policy = Vswitch.Ovs.vif_policy a.vif in
      List.iter
        (fun (peer : Host.Server.attached) ->
          let peer_ip = Host.Vm.ip peer.vm in
          if not (Ipv4.equal peer_ip (Host.Vm.ip a.vm)) then begin
            match server_of_vm t peer_ip with
            | None -> ()
            | Some server ->
                Rules.Policy.install_tunnel policy
                  (Rules.Tunnel_rule.make
                     ~tenant:(Host.Vm.tenant peer.vm)
                     ~vm_ip:peer_ip
                     {
                       Rules.Tunnel_rule.server_ip = Host.Server.ip server;
                       tor_ip = Tor.Tor_switch.ip t.tor;
                     })
          end)
        attached)
    attached

let pin tor (a : Host.Server.attached) ~selection ~destinations =
  let policy = Vswitch.Ovs.vif_policy a.vif in
  match Rules.Rule_compiler.compile ~policy ~selection ~destinations with
  | Error e ->
      invalid_arg
        (Format.asprintf "Testbed.pin: %a" Rules.Rule_compiler.pp_error e)
  | Ok compiled -> (
      let vrf = Tor.Tor_switch.vrf tor (Host.Vm.tenant a.vm) in
      match Tor.Vrf.install vrf compiled with
      | Ok handle -> (vrf, compiled, handle)
      | Error (`Tcam_full | `Install_fault) ->
          invalid_arg "Testbed.pin: install refused")

let force_path_vf t (a : Host.Server.attached) =
  (match a.vf with
  | None -> invalid_arg "Testbed.force_path_vf: VM has no VF"
  | Some _ -> ());
  connect_tunnels t;
  let tenant = Host.Vm.tenant a.vm in
  let pattern = Fkey.Pattern.from_vm (Host.Vm.ip a.vm) tenant in
  ignore (pin t.tor a ~selection:pattern ~destinations:(peer_ips t a));
  ignore
    (Host.Bonding.install_rule a.bonding ~pattern ~priority:1 Host.Bonding.Vf);
  (* Plain (untunneled) packets addressed to this VM are delivered to
     the SR-IOV port too — the paper's hardware path for §6.1 carries
     "no tunneling or rate limiting". *)
  match server_of_vm t (Host.Vm.ip a.vm) with
  | Some server ->
      Tor.Tor_switch.register_vm t.tor ~tenant ~vm_ip:(Host.Vm.ip a.vm)
        ~server_ip:(Host.Server.ip server) ~port:`Sriov ()
  | None -> ()

let run_for t ~seconds =
  let until = Simtime.add (Engine.now t.engine) (Simtime.span_sec seconds) in
  Engine.run ~until t.engine
