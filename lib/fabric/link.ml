module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Hdr = Netcore.Hdr

type t = {
  engine : Engine.t;
  gbps : float;
  latency : Simtime.span;
  deliver : Packet.t -> unit;
  wire : Compute.Cpu_pool.t;  (* 1-server queue: the wire itself *)
  mutable packets_sent : int;
}

let create ~engine ~gbps ~latency ~deliver =
  {
    engine;
    gbps;
    latency;
    deliver;
    wire = Compute.Cpu_pool.create ~engine ~cpus:1;
    packets_sent = 0;
  }

let wire_bytes pkt =
  let payload = pkt.Packet.payload in
  let frames = Hdr.frames ~payload in
  let per_frame_overhead =
    Packet.wire_size pkt - payload + Compute.Cost_params.wire_overhead_per_frame
  in
  payload + (frames * per_frame_overhead)

let transmit t pkt =
  let bytes_len = wire_bytes pkt in
  let cost = Simtime.span_of_bytes_at_rate ~bytes_len ~gbps:t.gbps in
  Compute.Cpu_pool.submit t.wire ~cost (fun () ->
      t.packets_sent <- t.packets_sent + 1;
      ignore (Engine.after t.engine t.latency (fun () -> t.deliver pkt)));
  cost

let packets_sent t = t.packets_sent
let queue_length t = Compute.Cpu_pool.queue_length t.wire
