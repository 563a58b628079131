module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey
module Cost = Compute.Cost_params

type t = {
  engine : Engine.t;
  vm_name : string;
  tenant : Netcore.Tenant.id;
  ip : Netcore.Ipv4.t;
  mac : Netcore.Mac.t;
  kernel : Compute.Cpu_pool.t;
  apps : Compute.Cpu_pool.t;
  rng : Dcsim.Rng.t;
  mutable transmit : Packet.t -> unit;
  flow_handlers : (Packet.t -> unit) Fkey.Table.t;
  listeners : (int, Packet.t -> unit) Hashtbl.t;
  mutable unmatched : int;
}

let create ~engine ~name ~vcpus ~tenant ~ip ~mac =
  if vcpus < 2 then invalid_arg "Vm.create: need at least 2 vcpus";
  {
    engine;
    vm_name = name;
    tenant;
    ip;
    mac;
    kernel = Compute.Cpu_pool.create ~engine ~cpus:1 ~name:(name ^ ".kernel");
    apps = Compute.Cpu_pool.create ~engine ~cpus:(vcpus - 1) ~name:(name ^ ".apps");
    rng = Dcsim.Rng.split (Engine.rng engine) ("vm." ^ name);
    transmit = (fun _ -> ());
    flow_handlers = Fkey.Table.create 32;
    listeners = Hashtbl.create 8;
    unmatched = 0;
  }

let name t = t.vm_name
let engine t = t.engine
let tenant t = t.tenant
let ip t = t.ip
let mac t = t.mac
let kernel t = t.kernel
let apps t = t.apps
let set_transmit t f = t.transmit <- f

let send t pkt =
  if pkt.Packet.bulk then begin
    (* Saturated senders run sendmsg on their own vCPU, in parallel. *)
    let cost = Cost.guest_tx_cost_bulk ~bytes_len:pkt.Packet.payload in
    Compute.Cpu_pool.submit t.apps ~cost (fun () -> t.transmit pkt)
  end
  else begin
    let cost = Cost.guest_tx_cost ~bytes_len:pkt.Packet.payload in
    Compute.Cpu_pool.submit t.kernel ~cost (fun () -> t.transmit pkt)
  end

let dispatch t pkt =
  let flow = pkt.Packet.flow in
  match Fkey.Table.find_opt t.flow_handlers flow with
  | Some handler -> handler pkt
  | None -> (
      match Hashtbl.find_opt t.listeners flow.Fkey.dst_port with
      | Some handler -> handler pkt
      | None -> t.unmatched <- t.unmatched + 1)

let deliver t pkt =
  if pkt.Packet.bulk then begin
    (* GRO-aggregated: prorated softirq cost, no per-packet wakeup. *)
    let cost = Cost.guest_rx_cost_bulk ~bytes_len:pkt.Packet.payload in
    Compute.Cpu_pool.submit t.kernel ~cost (fun () -> dispatch t pkt)
  end
  else begin
    let cost = Cost.guest_rx_cost ~bytes_len:pkt.Packet.payload in
    Compute.Cpu_pool.submit t.kernel ~cost (fun () ->
        let jitter_us =
          Dcsim.Rng.exponential t.rng
            ~mean:(Simtime.span_to_us Cost.guest_rx_wakeup_jitter_mean)
        in
        ignore
          (Engine.after t.engine (Simtime.span_us jitter_us) (fun () ->
               dispatch t pkt)))
  end

let register_flow_handler t flow handler =
  Fkey.Table.replace t.flow_handlers flow handler

let register_listener t ~port handler = Hashtbl.replace t.listeners port handler

let cpus_used t ~over =
  Compute.Cpu_pool.cpus_used t.kernel ~over
  +. Compute.Cpu_pool.cpus_used t.apps ~over

let reset_cpu_accounting t =
  Compute.Cpu_pool.reset_accounting t.kernel;
  Compute.Cpu_pool.reset_accounting t.apps
