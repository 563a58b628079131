module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Cost = Compute.Cost_params

let m_vf_tx = Obs.Metrics.counter "nic.vf_tx_packets"
let m_vf_rx = Obs.Metrics.counter "nic.vf_rx_packets"
let m_steering_drops = Obs.Metrics.counter "nic.steering_drops"

(* Per-tenant breakdowns of the VF datapath counters; an already-seen
   tenant costs one int-keyed hash probe, so these stay on
   unconditionally. [nic.vf_rx_bytes] doubles as the SLO goodput feed
   for express-lane traffic. *)
let fam_vf_tx = Obs.Metrics.counter_family ~label:"tenant" "nic.vf_tx_packets"
let fam_vf_rx = Obs.Metrics.counter_family ~label:"tenant" "nic.vf_rx_packets"
let fam_vf_rx_bytes = Obs.Metrics.counter_family ~label:"tenant" "nic.vf_rx_bytes"

type vf = {
  mac : Netcore.Mac.t;
  vlan : int;
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  deliver : Packet.t -> unit;
  tx_shaper : Shaping.Shaper.t;
  rx_shaper : Shaping.Shaper.t;
}

type t = {
  engine : Engine.t;
  max_vfs : int;
  host_pool : Compute.Cpu_pool.t;
  wire : Fabric.Link.t;
  mutable vfs : vf list;
  steering : (int, vf) Hashtbl.t;  (* (vlan lsl 32) lor ip -> vf *)
  mutable dropped : int;
}

(* VLAN ids are <= 4094 and IPv4 addresses fit 32 bits, so the pair
   packs injectively into one immediate int — no tuple allocated per
   received packet. *)
let[@inline] steering_key ~vlan ip =
  (vlan lsl 32) lor (ip : Netcore.Ipv4.t :> int)

let create ~engine ?(max_vfs = 64) ~host_pool ~wire () =
  {
    engine;
    max_vfs;
    host_pool;
    wire;
    vfs = [];
    steering = Hashtbl.create 16;
    dropped = 0;
  }

let allocate_vf t ~mac ~vlan ~tenant ~vm_ip ~deliver =
  if List.length t.vfs >= t.max_vfs then Error `No_vfs_left
  else begin
    let interrupt_then_deliver pkt =
      (* With SR-IOV the hypervisor only isolates interrupts (§2.2). *)
      Compute.Cpu_pool.submit t.host_pool ~cost:Cost.vf_rx_host_interrupt_cost
        (fun () -> deliver pkt)
    in
    let vf_ref = ref None in
    let vf =
      {
        mac;
        vlan;
        tenant;
        vm_ip;
        deliver = interrupt_then_deliver;
        tx_shaper =
          Shaping.Shaper.create ~engine:t.engine
            ~spec:Rules.Rate_limit_spec.unlimited
            ~forward:(fun pkt -> ignore (Fabric.Link.transmit t.wire pkt))
            ();
        rx_shaper =
          Shaping.Shaper.create ~engine:t.engine
            ~spec:Rules.Rate_limit_spec.unlimited
            ~forward:(fun pkt ->
              match !vf_ref with
              | Some v -> v.deliver pkt
              | None -> assert false)
            ();
      }
    in
    vf_ref := Some vf;
    t.vfs <- vf :: t.vfs;
    Hashtbl.replace t.steering (steering_key ~vlan vm_ip) vf;
    Ok vf
  end

let vf_count t = List.length t.vfs
let set_vf_tx_limit vf spec = Shaping.Shaper.set_spec vf.tx_shaper spec
let set_vf_rx_limit vf spec = Shaping.Shaper.set_spec vf.rx_shaper spec
let vf_tx_limit vf = Shaping.Shaper.spec vf.tx_shaper
let vf_tx_backlogged_seconds vf = Shaping.Shaper.backlogged_seconds vf.tx_shaper
let vf_tx_bytes vf = Shaping.Shaper.forwarded_bytes vf.tx_shaper
let vf_rx_bytes vf = Shaping.Shaper.forwarded_bytes vf.rx_shaper

let transmit_from_vf vf pkt =
  Obs.Metrics.incr m_vf_tx;
  Obs.Metrics.incr
    (Obs.Metrics.labeled_counter fam_vf_tx (vf.tenant :> int));
  Packet.push_encap pkt (Packet.Vlan vf.vlan);
  Shaping.Shaper.enqueue vf.tx_shaper pkt

let receive_from_wire t pkt =
  match Packet.outer_encap pkt with
  | Some (Packet.Vlan vlan) ->
      let dst = pkt.Packet.flow.Netcore.Fkey.dst_ip in
      (match Hashtbl.find t.steering (steering_key ~vlan dst) with
      | vf ->
          ignore (Packet.pop_encap pkt);
          Obs.Metrics.incr m_vf_rx;
          let tenant = (vf.tenant :> int) in
          Obs.Metrics.incr (Obs.Metrics.labeled_counter fam_vf_rx tenant);
          Obs.Metrics.add
            (Obs.Metrics.labeled_counter fam_vf_rx_bytes tenant)
            pkt.Packet.payload;
          Obs.Slo.observe_goodput ~tenant ~now:(Engine.now t.engine)
            pkt.Packet.payload;
          Shaping.Shaper.enqueue vf.rx_shaper pkt
      | exception Not_found ->
          t.dropped <- t.dropped + 1;
          Obs.Metrics.incr m_steering_drops)
  | Some (Packet.Gre _ | Packet.Vxlan _) | None ->
      t.dropped <- t.dropped + 1;
      Obs.Metrics.incr m_steering_drops

let packets_dropped t = t.dropped
