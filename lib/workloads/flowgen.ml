module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey

type config = {
  mean_flow_bytes : float;
  hot_fraction : float;
  hot_services : int;
  cold_services : int;
  message_size : int;
  message_gap : Simtime.span;
}

let default_config =
  {
    mean_flow_bytes = 50_000.0;
    hot_fraction = 0.8;
    hot_services = 4;
    cold_services = 64;
    message_size = 1448;
    message_gap = Simtime.span_us 100.0;
  }

type t = {
  engine : Engine.t;
  vm : Host.Vm.t;
  dst_ip : Netcore.Ipv4.t;
  dst_port_base : int;
  config : config;
  rng : Dcsim.Rng.t;
  ports : Portspace.t;
  mutable flows_started : int;
  mutable flows_completed : int;
  mutable flows_skipped : int;
  mutable bytes_offered : int;
}

let install_sinks ~vm ~dst_port_base config =
  for i = 0 to config.hot_services + config.cold_services - 1 do
    Host.Vm.register_listener vm ~port:(dst_port_base + i) (fun _ -> ())
  done

(* A flow is a paced sequence of messages; pacing keeps the generator
   open-loop (no feedback), which is what an arrival-driven scale test
   wants. The source port is held until the last message has been
   handed to the guest stack, so no two live flows share an Fkey. *)
let launch_flow t ~src_port ~dst_port ~size_bytes =
  let flow =
    Fkey.make ~src_ip:(Host.Vm.ip t.vm) ~dst_ip:t.dst_ip ~src_port ~dst_port
      ~proto:Fkey.Tcp ~tenant:(Host.Vm.tenant t.vm)
  in
  let messages = Stdlib.max 1 (size_bytes / t.config.message_size) in
  let gap = t.config.message_gap in
  let rec send_remaining remaining =
    if remaining > 0 then begin
      let pkt =
        Packet.create ~now:(Engine.now t.engine) ~flow
          ~payload:t.config.message_size ()
      in
      Host.Vm.send t.vm pkt;
      ignore (Engine.after t.engine gap (fun () -> send_remaining (remaining - 1)))
    end
    else begin
      Portspace.release t.ports src_port;
      t.flows_completed <- t.flows_completed + 1
    end
  in
  send_remaining messages

let launch_to t ~dst_port ~size_bytes =
  match Portspace.alloc t.ports with
  | None ->
      (* Every ephemeral port is held by a live flow: shed the arrival
         rather than alias one. *)
      t.flows_skipped <- t.flows_skipped + 1
  | Some src_port ->
      t.flows_started <- t.flows_started + 1;
      t.bytes_offered <- t.bytes_offered + size_bytes;
      launch_flow t ~src_port ~dst_port ~size_bytes

(* The tail index of the Pareto flow-size draw. *)
let pareto_shape = 1.2

let draw_size t =
  let scale =
    t.config.mean_flow_bytes *. (pareto_shape -. 1.0) /. pareto_shape
  in
  int_of_float (Dcsim.Rng.pareto t.rng ~shape:pareto_shape ~scale)

let launch t =
  let hot = Dcsim.Rng.float t.rng 1.0 < t.config.hot_fraction in
  let dst_port =
    if hot then t.dst_port_base + Dcsim.Rng.int t.rng t.config.hot_services
    else
      t.dst_port_base + t.config.hot_services
      + Dcsim.Rng.int t.rng (Stdlib.max 1 t.config.cold_services)
  in
  launch_to t ~dst_port ~size_bytes:(draw_size t)

let create ~engine ~vm ~dst_ip ~dst_port_base config =
  {
    engine;
    vm;
    dst_ip;
    dst_port_base;
    config;
    rng = Dcsim.Rng.split (Engine.rng engine) ("flowgen." ^ Host.Vm.name vm);
    ports = Portspace.create ();
    flows_started = 0;
    flows_completed = 0;
    flows_skipped = 0;
    bytes_offered = 0;
  }

let state_words t = Obj.reachable_words (Obj.repr t.ports)
let flows_started t = t.flows_started
let flows_completed t = t.flows_completed
let flows_skipped t = t.flows_skipped
let live_flows t = Portspace.in_use t.ports
let bytes_offered t = t.bytes_offered
