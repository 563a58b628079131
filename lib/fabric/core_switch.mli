(** Aggregation-layer core switch routing rack-to-rack traffic.

    The core lives on its own shard and terminates every rack's uplink
    {!Channel}: ToRs send cross-rack packets up, the core inspects the
    outermost encapsulation and forwards the packet down the matching
    rack's downlink channel. Express-lane (GRE) traffic is routed by
    the destination ToR loopback in the outer header; software-path
    (VXLAN) traffic by the destination server's registered rack. A
    packet with no routable outer address is counted and dropped.

    The model is a non-blocking crossbar: the only delay a transiting
    packet sees is the two channels' propagation latency. Contention at
    the aggregation layer is out of scope (the paper's experiments are
    edge-bound). *)

type t

val create : engine:Dcsim.Engine.t -> t
(** A core switch running on [engine]. *)

val attach_rack :
  t -> tor_ip:Netcore.Ipv4.t -> downlink:Netcore.Packet.t Channel.t -> unit
(** Register the downlink channel towards the rack whose ToR loopback
    is [tor_ip]. GRE packets with that [tunnel_dst] are forwarded on
    [downlink]. Re-attaching the same [tor_ip] replaces the route.
    Faults on the path belong to the channels (see {!Channel}). *)

val register_server : t -> server_ip:Netcore.Ipv4.t -> tor_ip:Netcore.Ipv4.t -> unit
(** Record that the server at [server_ip] lives under the rack whose
    ToR is [tor_ip], so software-path VXLAN packets addressed to it can
    be routed. *)

val receive : t -> Netcore.Packet.t -> unit
(** Handle a packet arriving on an uplink: route it to the matching
    downlink, or drop it (counted) if the outer encapsulation names no
    attached rack. Use this as the uplink channels' handler. *)

val engine : t -> Dcsim.Engine.t
(** The shard engine the core runs on. *)

val packets_routed : t -> int
(** Packets forwarded to a downlink so far. *)

val packets_dropped : t -> int
(** Packets dropped for lack of a route so far. *)
