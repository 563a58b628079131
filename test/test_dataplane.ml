(* Integration tests of the dataplane components: Link, Ovs, Sriov,
   Tcam/Vrf/Tor_switch, Qos_queue, and Server/Vm/Bonding assembly. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let tenant = Netcore.Tenant.of_int 7

let flow ?(src = "10.7.0.1") ?(dst = "10.7.0.2") ?(sport = 1000) ?(dport = 80) () =
  Fkey.make ~src_ip:(Ipv4.of_string src) ~dst_ip:(Ipv4.of_string dst)
    ~src_port:sport ~dst_port:dport ~proto:Fkey.Tcp ~tenant

let pkt ?(payload = 1000) f = Packet.data_packet ~now:Simtime.zero ~flow:f ~payload

(* --- Link --- *)

let test_link_delivery_timing () =
  let engine = Engine.create () in
  let arrived = ref Simtime.zero in
  let link =
    Fabric.Link.create ~engine ~gbps:10.0
      ~latency:(Simtime.span_us 1.0)
      ~deliver:(fun _ -> arrived := Engine.now engine)
  in
  let p = pkt ~payload:1000 (flow ()) in
  let expected_ser =
    Simtime.span_of_bytes_at_rate ~bytes_len:(Fabric.Link.wire_bytes p) ~gbps:10.0
  in
  ignore (Fabric.Link.transmit link p);
  Engine.run engine;
  checki "serialization + latency"
    (Simtime.span_to_ns expected_ser + 1_000)
    (Simtime.to_ns !arrived);
  checki "counted" 1 (Fabric.Link.packets_sent link)

let test_link_fifo_contention () =
  let engine = Engine.create () in
  let order = ref [] in
  let link =
    Fabric.Link.create ~engine ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun p -> order := p.Packet.payload :: !order)
  in
  for i = 1 to 5 do
    ignore (Fabric.Link.transmit link (pkt ~payload:(1000 + i) (flow ())))
  done;
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.int) "fifo"
    [ 1001; 1002; 1003; 1004; 1005 ]
    (List.rev !order)

let test_link_wire_bytes_multiframe () =
  let small = Fabric.Link.wire_bytes (pkt ~payload:100 (flow ())) in
  let big = Fabric.Link.wire_bytes (pkt ~payload:32000 (flow ())) in
  (* 32000 B = 22 frames, each with headers + preamble. *)
  checkb "per-frame overhead scales" true (big > 32000 + (21 * 58));
  checkb "small sane" true (small < 200)

(* --- Tcam --- *)

let test_tcam () =
  let t = Tor.Tcam.create ~capacity:10 in
  checkb "reserve" true (Tor.Tcam.reserve t 7);
  checki "available" 3 (Tor.Tcam.available t);
  checkb "over-reserve refused" false (Tor.Tcam.reserve t 4);
  checki "unchanged" 7 (Tor.Tcam.used t);
  Tor.Tcam.release t 5;
  checki "released" 2 (Tor.Tcam.used t);
  Alcotest.check_raises "over-release" (Invalid_argument "Tcam.release: bad count")
    (fun () -> Tor.Tcam.release t 5)

(* --- Vrf --- *)

let compiled_for ?(dport = 80) () =
  let policy = Rules.Policy.create ~tenant ~vm_ip:(Ipv4.of_string "10.7.0.1") () in
  Rules.Policy.add_acl policy
    (Rules.Security_rule.make ~priority:5
       { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some dport; tenant = Some tenant }
       Allow);
  Rules.Policy.install_tunnel policy
    (Rules.Tunnel_rule.make ~tenant ~vm_ip:(Ipv4.of_string "10.7.0.2")
       {
         Rules.Tunnel_rule.server_ip = Ipv4.of_string "192.168.1.11";
         tor_ip = Ipv4.of_string "192.168.0.1";
       });
  match Rules.Rule_compiler.compile_flow ~policy ~flow:(flow ~dport ()) with
  | Ok c -> c
  | Error _ -> Alcotest.fail "compile failed"

let test_vrf_install_permits () =
  let tcam = Tor.Tcam.create ~capacity:16 in
  let vrf = Tor.Vrf.create ~engine:(Engine.create ()) ~tenant ~tcam in
  checkb "default deny" false (Tor.Vrf.permits vrf (flow ()));
  let handle =
    match Tor.Vrf.install vrf (compiled_for ()) with
    | Ok h -> h
    | Error (`Tcam_full | `Install_fault) -> Alcotest.fail "unexpected tcam full"
  in
  checkb "permits after install" true (Tor.Vrf.permits vrf (flow ()));
  checkb "other flow still denied" false (Tor.Vrf.permits vrf (flow ~dport:22 ()));
  checkb "tunnel installed" true
    (Tor.Vrf.tunnel_for vrf ~dst_ip:(Ipv4.of_string "10.7.0.2") <> None);
  checki "tcam entries" 2 (Tor.Tcam.used tcam);
  Tor.Vrf.remove vrf handle;
  checkb "deny after remove" false (Tor.Vrf.permits vrf (flow ()));
  checki "tcam returned" 0 (Tor.Tcam.used tcam);
  (* Idempotent removal. *)
  Tor.Vrf.remove vrf handle;
  checki "still zero" 0 (Tor.Tcam.used tcam)

let test_vrf_tcam_full () =
  let tcam = Tor.Tcam.create ~capacity:1 in
  let vrf = Tor.Vrf.create ~engine:(Engine.create ()) ~tenant ~tcam in
  (match Tor.Vrf.install vrf (compiled_for ()) with
  | Error (`Tcam_full | `Install_fault) -> ()
  | Ok _ -> Alcotest.fail "must not fit");
  checki "atomic failure" 0 (Tor.Tcam.used tcam)

let test_vrf_tunnel_refcount () =
  let tcam = Tor.Tcam.create ~capacity:16 in
  let vrf = Tor.Vrf.create ~engine:(Engine.create ()) ~tenant ~tcam in
  let h1 = Result.get_ok (Tor.Vrf.install vrf (compiled_for ~dport:80 ())) in
  let _h2 = Result.get_ok (Tor.Vrf.install vrf (compiled_for ~dport:81 ())) in
  Tor.Vrf.remove vrf h1;
  (* The tunnel mapping is shared; the second entry still needs it. *)
  checkb "tunnel survives shared removal" true
    (Tor.Vrf.tunnel_for vrf ~dst_ip:(Ipv4.of_string "10.7.0.2") <> None)

(* --- Vrf.permits against a scan of the live entries ---

   The reference is the lookup the index replaced: a flow is permitted
   iff some live entry's pattern matches it, and no match is the
   default deny. A three-address, two-port universe makes patterns
   overlap, so one flow is often matched by several entries. *)

let universe_ip i = Ipv4.of_octets 10 7 0 (1 + i)

let universe_flow (s, d, sp, dp, udp) =
  Fkey.make ~src_ip:(universe_ip s) ~dst_ip:(universe_ip d) ~src_port:(80 + sp)
    ~dst_port:(80 + dp) ~proto:(if udp then Fkey.Udp else Fkey.Tcp) ~tenant

let universe =
  List.init 72 (fun i ->
      universe_flow (i mod 3, i / 3 mod 3, i / 9 mod 2, i / 18 mod 2, i >= 36))

let universe_flow_gen =
  QCheck2.Gen.(
    map universe_flow (tup5 (int_bound 2) (int_bound 2) (int_bound 1) (int_bound 1) bool))

(* The five selection shapes the controllers build. *)
let selection_gen =
  QCheck2.Gen.(
    map2
      (fun shape (k : Fkey.t) ->
        let open Fkey.Pattern in
        match shape with
        | 0 -> exact k
        | 1 -> src_aggregate k
        | 2 -> dst_aggregate k
        | 3 -> from_vm k.src_ip tenant
        | _ -> { (from_vm k.src_ip tenant) with dst_ip = Some k.dst_ip })
      (int_bound 4) universe_flow_gen)

(* A policy ACL pinning a random subset of a flow's fields. *)
let acl_gen =
  QCheck2.Gen.(
    map2
      (fun bits (k : Fkey.t) ->
        let pick i v = if bits land (1 lsl i) <> 0 then Some v else None in
        {
          Fkey.Pattern.src_ip = pick 0 k.src_ip;
          dst_ip = pick 1 k.dst_ip;
          src_port = pick 2 k.src_port;
          dst_port = pick 3 k.dst_port;
          proto = pick 4 k.proto;
          tenant = pick 5 k.tenant;
        })
      (int_bound 63) universe_flow_gen)

(* The selection intersected with the ACL; [None] when the two are
   disjoint and the compiler refuses. *)
let compile_entry (selection, acl) =
  let policy = Rules.Policy.create ~tenant ~vm_ip:(universe_ip 0) () in
  Rules.Policy.add_acl policy (Rules.Security_rule.make ~priority:5 acl Allow);
  Result.to_option
    (Rules.Rule_compiler.compile ~policy ~selection ~destinations:[])

type vrf_op =
  | Install of (Fkey.Pattern.t * Fkey.Pattern.t)
  | Install_faulted of (Fkey.Pattern.t * Fkey.Pattern.t)
  | Remove of int
  | Evict
  | Probe of Fkey.t

let vrf_op_gen =
  let entry = QCheck2.Gen.pair selection_gen acl_gen in
  QCheck2.Gen.(
    frequency
      [
        (5, map (fun e -> Install e) entry);
        (1, map (fun e -> Install_faulted e) entry);
        (2, map (fun k -> Remove k) nat);
        (1, pure Evict);
        (6, map (fun f -> Probe f) universe_flow_gen);
      ])

let prop_vrf_permits_matches_scan =
  QCheck2.Test.make ~name:"vrf permits matches the any-match scan" ~count:300
    QCheck2.Gen.(list_size (int_range 10 60) vrf_op_gen)
    (fun ops ->
      (* A small TCAM, so some installs find it full. Every compiled
         entry takes one TCAM entry (no tunnels). *)
      let tcam_capacity = 20 in
      let vrf =
        Tor.Vrf.create ~engine:(Engine.create ()) ~tenant
          ~tcam:(Tor.Tcam.create ~capacity:tcam_capacity)
      in
      let rng = Dcsim.Rng.create ~seed:(List.length ops) in
      let live = ref [] (* (handle, compiled), newest first *) in
      let reference flow =
        List.exists
          (fun (_, c) -> Fkey.Pattern.matches c.Rules.Rule_compiler.acl_pattern flow)
          !live
      in
      let agrees flow = Tor.Vrf.permits vrf flow = reference flow in
      let forget h = live := List.filter (fun (h', _) -> h' <> h) !live in
      let step op =
        (match op with
        | Install e -> (
            match compile_entry e with
            | None -> true
            | Some c -> (
                match Tor.Vrf.install vrf c with
                | Ok h ->
                    live := (h, c) :: !live;
                    true
                | Error `Tcam_full -> List.length !live = tcam_capacity
                | Error `Install_fault -> false))
        | Install_faulted e -> (
            match compile_entry e with
            | None -> true
            | Some c ->
                Tor.Vrf.set_install_fault vrf (Some (fun () -> true));
                let r = Tor.Vrf.install vrf c in
                Tor.Vrf.set_install_fault vrf None;
                r = Error `Install_fault)
        | Remove k -> (
            match !live with
            | [] -> true
            | l ->
                let h, _ = List.nth l (k mod List.length l) in
                Tor.Vrf.remove vrf h;
                forget h;
                true)
        | Evict -> (
            match Tor.Vrf.evict_random vrf ~rng with
            | None -> !live = []
            | Some h ->
                forget h;
                true)
        | Probe flow -> agrees flow)
        && Tor.Vrf.installed_count vrf = List.length !live
      in
      List.for_all step ops && List.for_all agrees universe)

(* --- Receiving ToR: default deny --- *)

let tor_ip = Ipv4.of_string "192.168.0.1"
let server_ip = Ipv4.of_string "192.168.1.11"

(* A ToR with one server whose SR-IOV port reports each packet's
   payload, and [dst] registered behind it. *)
let receiving_tor ~dst =
  let engine = Engine.create () in
  let tor = Tor.Tor_switch.create ~engine ~ip:tor_ip ~tcam_capacity:16 in
  let delivered = ref [] in
  Tor.Tor_switch.attach_server tor ~server_ip
    ~to_vswitch:(fun _ -> Alcotest.fail "express packet on the vswitch port")
    ~to_sriov:(fun p -> delivered := p.Packet.payload :: !delivered);
  Tor.Tor_switch.register_vm tor ~tenant ~vm_ip:(Ipv4.of_string dst) ~server_ip
    ~port:`Sriov ();
  (engine, tor, delivered)

let gre_rx tor ?(payload = 1000) f =
  let p = pkt ~payload f in
  Packet.push_encap p (Packet.Gre { tunnel_dst = tor_ip; key = tenant });
  Tor.Tor_switch.receive tor p

let vrf_entry acl_pattern =
  { Rules.Rule_compiler.tenant; acl_pattern; tunnels = []; tcam_entries = 1 }

let test_receiving_tor_default_deny () =
  let engine, tor, delivered = receiving_tor ~dst:"10.7.0.2" in
  let allowed = flow ~dport:80 () in
  ignore
    (Result.get_ok
       (Tor.Vrf.install (Tor.Tor_switch.vrf tor tenant)
          (vrf_entry (Fkey.Pattern.exact allowed))));
  gre_rx tor ~payload:1 (flow ~dport:22 ());
  Engine.run engine;
  checki "denied flow counted" 1 (Tor.Tor_switch.acl_drops tor);
  Alcotest.(check (list int)) "nothing reached the server" [] !delivered;
  gre_rx tor ~payload:2 allowed;
  Engine.run engine;
  checki "allowed flow not counted" 1 (Tor.Tor_switch.acl_drops tor);
  Alcotest.(check (list int)) "allowed flow delivered" [ 2 ] !delivered

(* --- Qos queue --- *)

(* The invariant qos_queue.mli states: the port paces itself on the
   link, so the link's own queue stays empty and packets leave in
   arrival order. A burst of mixed sizes saturates the port; each
   delivery enqueues one more packet while the next one is on the
   wire. *)
let test_qos_wire_never_queues () =
  let engine = Engine.create () in
  let link_ref = ref None and q_ref = ref None in
  let enqueued = ref [] and delivered = ref [] in
  let enqueue id =
    let link = Option.get !link_ref and q = Option.get !q_ref in
    checki "wire idle at enqueue" 0 (Fabric.Link.queue_length link);
    enqueued := id :: !enqueued;
    Tor.Qos_queue.enqueue q (pkt ~payload:(64 + (id * 2741 mod 9000)) (flow ~sport:id ()))
  in
  let burst = 40 in
  let follow_up id = if id < burst then Some (burst + id) else None in
  let link =
    Fabric.Link.create ~engine ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun p ->
        let id = p.Packet.flow.Fkey.src_port in
        delivered := id :: !delivered;
        checki "wire idle at delivery" 0 (Fabric.Link.queue_length (Option.get !link_ref));
        Option.iter enqueue (follow_up id))
  in
  link_ref := Some link;
  let q = Tor.Qos_queue.create ~engine ~link in
  q_ref := Some q;
  let sent = Obs.Metrics.counter "tor.qos.sent" in
  let sent_before = Obs.Metrics.counter_value sent in
  for id = 0 to burst - 1 do
    enqueue id
  done;
  Engine.run engine;
  checki "every packet sent" (2 * burst)
    (Obs.Metrics.counter_value sent - sent_before);
  Alcotest.(check (list int)) "arrival order" (List.rev !enqueued) (List.rev !delivered)

(* --- End-to-end through a Testbed rack --- *)

let two_vm_testbed ?(config = Compute.Cost_params.baseline) () =
  let tb = Experiments.Testbed.create ~server_count:2 ~config () in
  let a =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"a" ~ip_last_octet:1 ())
  in
  let b =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"b" ~ip_last_octet:2 ())
  in
  (tb, a, b)

let test_software_path_delivery () =
  let tb, a, b = two_vm_testbed () in
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1234 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  for _ = 1 to 5 do
    Host.Vm.send a.Host.Server.vm (pkt f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "delivered via vswitch" 5 !got;
  checkb "vswitch processed them" true
    (Vswitch.Ovs.packets_sent (Host.Server.ovs tb.Experiments.Testbed.servers.(0)) >= 5);
  checki "default path is VIF" 5
    (Host.Bonding.packets_via_vif a.Host.Server.bonding)

let test_hardware_path_delivery () =
  let tb, a, b = two_vm_testbed () in
  Experiments.Testbed.force_path_vf tb a;
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1234 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  for _ = 1 to 5 do
    Host.Vm.send a.Host.Server.vm (pkt f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "delivered via hardware path" 5 !got;
  checki "placer sent via VF" 5 (Host.Bonding.packets_via_vf a.Host.Server.bonding);
  checki "vswitch bypassed" 0
    (Vswitch.Ovs.packets_sent (Host.Server.ovs tb.Experiments.Testbed.servers.(0)));
  (* The ToR saw and permitted the offloaded flow. *)
  checkb "tor stats recorded" true
    (List.length (Tor.Tor_switch.offloaded_flows tb.Experiments.Testbed.tor) >= 1)

let test_hardware_path_default_deny () =
  (* A malicious VM pushing traffic through the VF without installed
     rules dies at the ToR ACL (§4.1.3). *)
  let tb, a, b = two_vm_testbed () in
  (* Placer rule without the VRF install. *)
  ignore
    (Host.Bonding.install_rule a.Host.Server.bonding
       ~pattern:(Fkey.Pattern.from_vm (Host.Vm.ip a.Host.Server.vm) tenant)
       ~priority:5 Host.Bonding.Vf);
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "nothing delivered" 0 !got;
  checki "dropped at tor acl" 1 (Tor.Tor_switch.acl_drops tb.Experiments.Testbed.tor)

let test_vswitch_security_drop () =
  let tb = Experiments.Testbed.create ~server_count:2 () in
  let a =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:0 ~name:"a" ~ip_last_octet:1 ())
  in
  let b =
    Experiments.Testbed.add_vm tb
      (Experiments.Testbed.vm_spec ~server:1 ~name:"b" ~ip_last_octet:2 ())
  in
  (* Carve a deny for port 6666 above the allow-all. *)
  Rules.Policy.add_acl
    (Vswitch.Ovs.vif_policy a.Host.Server.vif)
    (Rules.Security_rule.make ~priority:9
       { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some 6666 }
       Deny);
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:6666 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:6666
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "denied in vswitch" 0 !got;
  checki "security drop counted" 1
    (Vswitch.Ovs.security_drops (Host.Server.ovs tb.Experiments.Testbed.servers.(0)))

let test_vswitch_blocked_flow_drops () =
  let tb, a, b = two_vm_testbed () in
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  Vswitch.Ovs.set_flow_blocked ovs f true;
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "blocked" 0 !got;
  checki "drop counted" 1 (Vswitch.Ovs.packets_dropped ovs);
  Vswitch.Ovs.set_flow_blocked ovs f false;
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "unblocked flows pass" 1 !got

let test_vswitch_tunneling_path () =
  let tb, a, b = two_vm_testbed ~config:Compute.Cost_params.with_tunneling () in
  Experiments.Testbed.connect_tunnels tb;
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "vxlan end to end" 1 !got

let test_ovs_flow_stats () =
  let tb, a, b = two_vm_testbed () in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> ());
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  for _ = 1 to 7 do
    Host.Vm.send a.Host.Server.vm (pkt ~payload:500 f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  let check what expected =
    Alcotest.(check (option (pair int int)))
      what expected
      (List.find_map
         (fun (fl, packets, bytes) ->
           if Fkey.equal fl f then Some (packets, bytes) else None)
         (Vswitch.Ovs.active_flows ovs))
  in
  check "packets and bytes" (Some (7, 3500));
  (* A sweep keeps a flow that counted since the previous one, forgets
     it at the next sweep if it stayed idle, and a resumed flow counts
     from zero. *)
  Vswitch.Ovs.expire_idle_flows ovs;
  check "moved since it entered: kept" (Some (7, 3500));
  Vswitch.Ovs.expire_idle_flows ovs;
  check "idle since the last sweep: forgotten" None;
  for _ = 1 to 2 do
    Host.Vm.send a.Host.Server.vm (pkt ~payload:500 f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  check "resumed from zero" (Some (2, 1000))

let test_ovs_upcall_once_per_flow () =
  let tb, a, b = two_vm_testbed () in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> ());
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  let upcalls_after_first = Vswitch.Ovs.upcalls ovs in
  for _ = 1 to 10 do
    Host.Vm.send a.Host.Server.vm (pkt f)
  done;
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "no further upcalls" upcalls_after_first (Vswitch.Ovs.upcalls ovs);
  (* The vhost services its queue in batches and packets of one flow in
     a batch share a single classification, so ten packets produce at
     least one cache hit, not necessarily ten. *)
  checkb "kernel hits instead" true (Vswitch.Ovs.kernel_hits ovs >= 1)

(* Regression: with the old never-invalidated verdict cache, an ACL
   added after a flow's first packet was ignored for the lifetime of
   the flow. The policy-generation check must flush the cache so the
   new rule bites on the very next packet. *)
let test_ovs_policy_change_after_first_packet () =
  let tb, a, b = two_vm_testbed () in
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "first packet delivered" 1 !got;
  (* Carve a deny above the allow-all after the verdict is cached. *)
  Rules.Policy.add_acl
    (Vswitch.Ovs.vif_policy a.Host.Server.vif)
    (Rules.Security_rule.make ~priority:9
       { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some 80 }
       Deny);
  Host.Vm.send a.Host.Server.vm (pkt f);
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "rule change honoured on the next packet" 1 !got;
  checki "second packet security-dropped" 1
    (Vswitch.Ovs.security_drops (Host.Server.ovs tb.Experiments.Testbed.servers.(0)))

(* Regression: block and unblock taking effect mid-run, with packets
   in flight around both transitions. *)
let test_ovs_block_unblock_midrun () =
  let tb, a, b = two_vm_testbed () in
  let engine = tb.Experiments.Testbed.engine in
  let ovs = Host.Server.ovs tb.Experiments.Testbed.servers.(0) in
  let got = ref 0 in
  Host.Vm.register_listener b.Host.Server.vm ~port:80 (fun _ -> incr got);
  let f =
    Fkey.make ~src_ip:(Host.Vm.ip a.Host.Server.vm)
      ~dst_ip:(Host.Vm.ip b.Host.Server.vm) ~src_port:1 ~dst_port:80
      ~proto:Fkey.Tcp ~tenant
  in
  let send () = Host.Vm.send a.Host.Server.vm (pkt f) in
  send ();
  ignore
    (Engine.after engine (Simtime.span_ms 10.0) (fun () ->
         Vswitch.Ovs.set_flow_blocked ovs f true;
         send ()));
  ignore
    (Engine.after engine (Simtime.span_ms 20.0) (fun () ->
         Vswitch.Ovs.set_flow_blocked ovs f false;
         send ()));
  Experiments.Testbed.run_for tb ~seconds:0.1;
  checki "packets around the blocked window delivered" 2 !got;
  checkb "blocked packet dropped" true (Vswitch.Ovs.packets_dropped ovs >= 1)

(* Ten same-flow packets queued before the engine runs coalesce into
   one vhost batch and pay exactly one upcall. *)
let test_ovs_batch_upcall_dedup () =
  let engine = Engine.create () in
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:2 in
  let ovs =
    Vswitch.Ovs.create ~engine ~config:Compute.Cost_params.baseline ~host_pool
      ~server_ip:(Ipv4.of_string "192.168.1.1")
      ~transmit:(fun _ -> ())
  in
  let policy = Rules.Policy.create ~tenant ~vm_ip:(Ipv4.of_string "10.7.0.1") () in
  Rules.Policy.add_acl policy
    (Rules.Security_rule.make ~priority:5 Fkey.Pattern.any Allow);
  let vif = Vswitch.Ovs.add_vif ovs ~policy ~deliver:(fun _ -> ()) in
  let f = flow () in
  for _ = 1 to 10 do
    Vswitch.Ovs.transmit_from_vif ovs vif (pkt f)
  done;
  Engine.run engine;
  checki "one upcall for the whole batch" 1 (Vswitch.Ovs.upcalls ovs);
  checki "all packets sent" 10 (Vswitch.Ovs.packets_sent ovs)

(* --- Sriov --- *)

let test_sriov_vf_exhaustion () =
  let engine = Engine.create () in
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:2 in
  let wire =
    Fabric.Link.create ~engine ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun _ -> ())
  in
  let nic = Nic.Sriov.create ~engine ~host_pool ~wire in
  let alloc i =
    Nic.Sriov.allocate_vf nic
      ~mac:(Netcore.Mac.vm_mac ~server:0 ~vm:i)
      ~vlan:7 ~tenant
      ~vm_ip:(Ipv4.of_string (Printf.sprintf "10.7.0.%d" i))
      ~deliver:(fun _ -> ())
  in
  (* The port offers 64 VFs. *)
  for i = 1 to 64 do
    checkb "within the limit" true (Result.is_ok (alloc i))
  done;
  (match alloc 65 with
  | Error `No_vfs_left -> ()
  | Ok _ -> Alcotest.fail "VF limit not enforced");
  checki "count" 64 (Nic.Sriov.vf_count nic)

let test_sriov_steering () =
  let engine = Engine.create () in
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:2 in
  let wire =
    Fabric.Link.create ~engine ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun _ -> ())
  in
  let nic = Nic.Sriov.create ~engine ~host_pool ~wire in
  let got = ref 0 in
  ignore
    (Nic.Sriov.allocate_vf nic
       ~mac:(Netcore.Mac.vm_mac ~server:0 ~vm:2)
       ~vlan:7 ~tenant
       ~vm_ip:(Ipv4.of_string "10.7.0.2")
       ~deliver:(fun _ -> incr got));
  (* Correct VLAN + ip: steered. *)
  let p = pkt (flow ()) in
  Packet.push_encap p (Packet.Vlan 7);
  Nic.Sriov.receive_from_wire nic p;
  (* Wrong VLAN: dropped. *)
  let p2 = pkt (flow ()) in
  Packet.push_encap p2 (Packet.Vlan 8);
  Nic.Sriov.receive_from_wire nic p2;
  (* Untagged: dropped. *)
  Nic.Sriov.receive_from_wire nic (pkt (flow ()));
  Engine.run engine;
  checki "steered" 1 !got;
  checki "drops" 2 (Nic.Sriov.packets_dropped nic)

let test_sriov_vlan_tag_on_tx () =
  let engine = Engine.create () in
  let host_pool = Compute.Cpu_pool.create ~engine ~cpus:2 in
  let tagged = ref None in
  let wire =
    Fabric.Link.create ~engine ~gbps:10.0 ~latency:Simtime.span_zero
      ~deliver:(fun p -> tagged := Packet.vlan_of p)
  in
  let nic = Nic.Sriov.create ~engine ~host_pool ~wire in
  let vf =
    Result.get_ok
      (Nic.Sriov.allocate_vf nic
         ~mac:(Netcore.Mac.vm_mac ~server:0 ~vm:1)
         ~vlan:7 ~tenant
         ~vm_ip:(Ipv4.of_string "10.7.0.1")
         ~deliver:(fun _ -> ()))
  in
  Nic.Sriov.transmit_from_vf vf (pkt (flow ()));
  Engine.run engine;
  checki "tenant vlan inserted" 7 (Option.get !tagged)

(* --- Bonding --- *)

let test_bonding_default_and_rules () =
  let via = ref [] in
  let b =
    Host.Bonding.create
      ~vif_tx:(fun _ -> via := `Vif :: !via)
      ~vf_tx:(fun _ -> via := `Vf :: !via)
  in
  let f = flow () in
  Host.Bonding.transmit b (pkt f);
  let id =
    Host.Bonding.install_rule b ~pattern:(Fkey.Pattern.exact f) ~priority:5
      Host.Bonding.Vf
  in
  Host.Bonding.transmit b (pkt f);
  checkb "path query" true (Host.Bonding.path_for b f = Host.Bonding.Vf);
  ignore (Host.Bonding.remove_rule b id);
  Host.Bonding.transmit b (pkt f);
  Alcotest.check
    (Alcotest.list (Alcotest.testable (fun ppf -> function
       | `Vif -> Format.pp_print_string ppf "vif"
       | `Vf -> Format.pp_print_string ppf "vf") ( = )))
    "vif, then vf, then vif again" [ `Vif; `Vf; `Vif ] (List.rev !via);
  checki "counters" 2 (Host.Bonding.packets_via_vif b)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "link delivery timing" test_link_delivery_timing;
    t "link fifo contention" test_link_fifo_contention;
    t "link wire bytes multiframe" test_link_wire_bytes_multiframe;
    t "tcam accounting" test_tcam;
    t "vrf install/permits/remove" test_vrf_install_permits;
    t "vrf tcam full atomic" test_vrf_tcam_full;
    t "vrf tunnel refcount" test_vrf_tunnel_refcount;
    t "qos wire never queues" test_qos_wire_never_queues;
    QCheck_alcotest.to_alcotest prop_vrf_permits_matches_scan;
    t "receiving tor default deny" test_receiving_tor_default_deny;
    t "software path end-to-end" test_software_path_delivery;
    t "hardware path end-to-end" test_hardware_path_delivery;
    t "hardware path default deny" test_hardware_path_default_deny;
    t "vswitch security drop" test_vswitch_security_drop;
    t "vswitch blocked flow" test_vswitch_blocked_flow_drops;
    t "vswitch vxlan tunneling" test_vswitch_tunneling_path;
    t "ovs flow stats" test_ovs_flow_stats;
    t "ovs upcall once per flow" test_ovs_upcall_once_per_flow;
    t "ovs policy change after first packet" test_ovs_policy_change_after_first_packet;
    t "ovs block unblock midrun" test_ovs_block_unblock_midrun;
    t "ovs batch upcall dedup" test_ovs_batch_upcall_dedup;
    t "sriov vf exhaustion" test_sriov_vf_exhaustion;
    t "sriov rx steering" test_sriov_steering;
    t "sriov vlan tag on tx" test_sriov_vlan_tag_on_tx;
    t "bonding placer rules" test_bonding_default_and_rules;
  ]
