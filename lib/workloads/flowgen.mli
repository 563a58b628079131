(** Synthetic many-flow traffic with temporal locality.

    Open-loop flows from one source VM to the destination services of
    one destination VM. The generator has no arrival clock of its own:
    the caller launches each flow ({!Loadgen} owns the diurnal, bursty
    arrival process). Flow sizes are Pareto (heavy-tailed — most flows
    small, a few elephants); 80% of launches re-use a "hot" working set
    of 4 destination services, giving the temporal locality FasTrak
    exploits, and the rest spread over 64 cold ones.

    Source ports come from a {!Portspace} allocator, so no two live
    flows from the same VM ever share an {!Netcore.Fkey}; a port is
    recycled only after its flow's last message. *)

type config = {
  mean_flow_bytes : float;
      (** Mean of the Pareto flow-size draw (tail index 1.2). *)
  message_size : int;
  message_gap : Dcsim.Simtime.span;
      (** Pacing gap between a flow's messages; with the arrival rate
          of the caller's launches this sets how many flows are
          concurrently live. *)
}

val default_config : config

type t

val create :
  engine:Dcsim.Engine.t ->
  vm:Host.Vm.t ->
  dst_ip:Netcore.Ipv4.t ->
  dst_port_base:int ->
  config ->
  t
(** A generator of flows from [vm] to [dst_ip]. Destination services
    are the 68 ports from [dst_port_base] on the destination VM, the 4
    hot ones first; {!install_sinks} installs a discarding listener on
    each. Flows start only through {!launch} / {!launch_to}. *)

val install_sinks : vm:Host.Vm.t -> dst_port_base:int -> unit

val launch : t -> unit
(** Launch one flow immediately: hot/cold destination choice and
    Pareto size drawn from the generator's config. *)

val launch_to : t -> dst_port:int -> size_bytes:int -> unit
(** Launch one flow to a specific destination port — used for incast
    fan-in, where many sources target one victim service. *)

val flows_started : t -> int

val flows_completed : t -> int
(** Flows whose every message has been handed to the guest stack. *)

val flows_skipped : t -> int
(** Arrivals shed because every source port was held by a live flow. *)

val live_flows : t -> int
(** Flows currently holding a source port. *)

val bytes_offered : t -> int

val state_words : t -> int
(** Heap words of the generator's flow bookkeeping (the port bitset):
    constant in the number of flows launched or live. *)
