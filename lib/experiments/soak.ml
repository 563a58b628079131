module Engine = Dcsim.Engine
module Simtime = Dcsim.Simtime
module Cluster = Dcsim.Cluster
module Channel = Fabric.Channel
module Core_switch = Fabric.Core_switch
module Stream = Workloads.Stream
module Flowgen = Workloads.Flowgen
module Loadgen = Workloads.Loadgen

type workload = Mixed | Steady | Bursty | Incast_heavy

let workload_to_string = function
  | Mixed -> "mixed"
  | Steady -> "steady"
  | Bursty -> "bursty"
  | Incast_heavy -> "incast-heavy"

let workload_of_string = function
  | "mixed" -> Some Mixed
  | "steady" -> Some Steady
  | "bursty" -> Some Bursty
  | "incast" | "incast-heavy" -> Some Incast_heavy
  | _ -> None

type config = {
  racks : int;
  servers_per_rack : int;
  duration : float;
  workload : workload;
  churn_rate : float;  (* churn events/sec per rack; 0 disables *)
  base_rate : float;  (* flow arrivals/sec per rack *)
  seed : int;
}

let default_config =
  {
    racks = 2;
    servers_per_rack = 2;
    duration = 5.0;
    workload = Mixed;
    churn_rate = 2.0;
    base_rate = 2000.0;
    seed = 42;
  }

let express_port = 7000
let gen_port_base = 30000

(* The diurnal day is half the run so every soak sees the curve rise
   and fall twice — peaks and troughs both covered. *)
let loadgen_config cfg =
  let day = Simtime.span_sec (Stdlib.max 0.5 (cfg.duration /. 2.0)) in
  let churn_period =
    if cfg.churn_rate > 0.0 then Some (Simtime.span_sec (1.0 /. cfg.churn_rate))
    else None
  in
  let base =
    {
      Loadgen.default_config with
      Loadgen.base_rate = cfg.base_rate;
      day;
      churn_period;
    }
  in
  match cfg.workload with
  | Mixed -> base (* sinusoid curve + moderate on/off, incast added below *)
  | Steady ->
      {
        base with
        Loadgen.curve = Loadgen.Flat;
        (* Effectively always-on sources: flips are rare and brief. *)
        on_mean = Simtime.span_sec (cfg.duration *. 10.0);
        off_mean = Simtime.span_us 1.0;
      }
  | Bursty ->
      {
        base with
        Loadgen.curve = Loadgen.Flat;
        on_mean = Simtime.span_ms 100.0;
        off_mean = Simtime.span_ms 300.0;
      }
  | Incast_heavy -> { base with Loadgen.curve = Loadgen.Flat }

let incast_spec cfg ~victims ~victim_port =
  match cfg.workload with
  | Steady | Bursty -> None
  | Mixed ->
      Some
        {
          Loadgen.victims;
          victim_port;
          fanin = Array.length victims;
          period = Simtime.span_ms 500.0;
          burst_bytes = 32 * 1448;
        }
  | Incast_heavy ->
      Some
        {
          Loadgen.victims;
          victim_port;
          fanin = Array.length victims;
          period = Simtime.span_ms 100.0;
          burst_bytes = 128 * 1448;
        }

type rack = {
  tb : Testbed.t;
  rack_engine : Engine.t;
  rm : Fastrak.Rule_manager.t;
  gens : Host.Server.attached array;  (* flowgen source VMs *)
  sink : Host.Server.attached;  (* flowgen destination + incast victim *)
  str : Host.Server.attached;  (* cross-rack express sender *)
  mig : Host.Server.attached;  (* the VM tenant churn migrates *)
  uplink : Netcore.Packet.t Channel.t;
  mutable lg : Loadgen.t option;
  pending : Fastrak.Rule_manager.migration option ref;
  server_cursor : int ref;
}

type result = {
  cfg : config;
  shard_count : int;
  windows : int;
  events : int;
  arrivals : int;
  thinned : int;
  gated_off : int;
  shed : int;
  completed : int;
  live_end : int;
  live_p50 : float;
  live_p99 : float;
  bytes_offered : int;
  incast_events : int;
  churn_departures : int;
  churn_arrivals : int;
  churn_pending : int;
  express_acked : int;
  generator_words : int;
  core_routed : int;
  core_dropped : int;
  tor_no_route_drops : int;
  acl_drops : int;
}

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.racks < 1 || cfg.racks > 32 then
    invalid_arg "Soak.run: racks must be in 1..32";
  if cfg.servers_per_rack < 1 then
    invalid_arg "Soak.run: need at least one server per rack";
  let mr = Multirack.create ~seed:cfg.seed ~racks:cfg.racks ~prefix:"r" () in
  let cluster = mr.Multirack.cluster in
  let rm_config =
    {
      Fastrak.Config.default with
      Fastrak.Config.epoch_period = Simtime.span_sec 0.1;
      poll_gap = Simtime.span_sec 0.02;
    }
  in
  let racks =
    Array.init cfg.racks (fun r ->
        let rack_engine = mr.Multirack.engines.(r) in
        let tb = Multirack.testbed mr r ~servers:cfg.servers_per_rack in
        let vm k kind =
          Testbed.vm_spec
            ~server:(k mod cfg.servers_per_rack)
            ~name:(Printf.sprintf "r%d.%s" r kind)
            ~ip_last_octet:((r * 7) + k + 1)
            ()
        in
        let gens =
          Array.init 3 (fun k ->
              Testbed.add_vm tb (vm k (Printf.sprintf "gen%d" k)))
        in
        let sink = Testbed.add_vm tb (vm 3 "sink") in
        let str = Testbed.add_vm tb (vm 4 "str") in
        let mig = Testbed.add_vm tb (vm 5 "mig") in
        Testbed.connect_tunnels tb;
        let uplink = Multirack.uplink mr r "up" in
        Multirack.attach mr r tb;
        let rm =
          Fastrak.Rule_manager.create ~engine:rack_engine ~config:rm_config
            ~tor:tb.Testbed.tor
            ~servers:(Array.to_list tb.Testbed.servers)
            ()
        in
        {
          tb;
          rack_engine;
          rm;
          gens;
          sink;
          str;
          mig;
          uplink;
          lg = None;
          pending = ref None;
          server_cursor = ref 0;
        })
  in
  Multirack.connect_peers (Array.map (fun rk -> (rk.tb, rk.uplink)) racks);
  Array.iter (fun rk -> Fastrak.Rule_manager.start rk.rm) racks;
  (* Express-lane ring under load: rack r's sender streams endlessly to
     rack r+1's sink over the pinned hardware path. These are the flows
     the no_blackhole monitor watches via their heartbeats. *)
  let express =
    if cfg.racks < 2 then [||]
    else
      Array.init cfg.racks (fun r ->
          let src = racks.(r) and dst = racks.((r + 1) mod cfg.racks) in
          let a = src.str and b = dst.sink in
          Dcscale.pin_direction ~src_tb:src.tb ~dst_tb:dst.tb a b;
          Dcscale.pin_direction ~src_tb:dst.tb ~dst_tb:src.tb b a;
          Stream.install_sink ~vm:b.Host.Server.vm ~port:express_port ();
          let sc =
            {
              (Stream.default_config ~dst_ip:(Host.Vm.ip b.Host.Server.vm)) with
              Stream.dst_port = express_port;
              src_port = 6000 + r;
              message_size = 4096;
            }
          in
          Stream.start ~engine:src.rack_engine ~vm:a.Host.Server.vm sc)
  in
  (* Per-rack load orchestration: three generator VMs fan into the
     rack's sink VM; the same generators double as the incast senders
     (same source VMs, one victim service); tenant churn cycles the mig
     VM through the two-phase migration machinery. *)
  let lg_config = loadgen_config cfg in
  Array.iter
    (fun rk ->
      let fg_config =
        {
          Flowgen.default_config with
          Flowgen.message_gap = Simtime.span_us 200.0;
        }
      in
      Flowgen.install_sinks ~vm:rk.sink.Host.Server.vm
        ~dst_port_base:gen_port_base;
      let fgens =
        Array.map
          (fun (g : Host.Server.attached) ->
            Flowgen.create ~engine:rk.rack_engine ~vm:g.Host.Server.vm
              ~dst_ip:(Host.Vm.ip rk.sink.Host.Server.vm)
              ~dst_port_base:gen_port_base fg_config)
          rk.gens
      in
      let incast =
        incast_spec cfg ~victims:fgens ~victim_port:gen_port_base
      in
      let tenant = Host.Vm.tenant rk.mig.Host.Server.vm in
      let mig_ip = Host.Vm.ip rk.mig.Host.Server.vm in
      let servers = rk.tb.Testbed.servers in
      let churn =
        {
          Loadgen.depart =
            (fun () ->
              match !(rk.pending) with
              | Some _ -> ()
              | None ->
                  rk.pending :=
                    Some
                      (Fastrak.Rule_manager.begin_vm_migration rk.rm ~tenant
                         ~vm_ip:mig_ip));
          arrive =
            (fun () ->
              match !(rk.pending) with
              | None -> ()
              | Some mg ->
                  let i = !(rk.server_cursor) in
                  rk.server_cursor := (i + 1) mod Array.length servers;
                  let new_server = Host.Server.name servers.(i) in
                  ignore
                    (Fastrak.Rule_manager.commit_vm_migration rk.rm mg
                       ~new_server);
                  rk.pending := None);
        }
      in
      rk.lg <-
        Some
          (Loadgen.start ~engine:rk.rack_engine ?incast ~churn ~gens:fgens
             lg_config))
    racks;
  Cluster.run ~until:(Simtime.of_sec cfg.duration) cluster;
  let stats =
    Array.to_list racks
    |> List.filter_map (fun rk -> Option.map Loadgen.stats rk.lg)
  in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  let sum_rk f = Array.fold_left (fun acc rk -> acc + f rk) 0 racks in
  let p of_q =
    (* Worst across racks: the interesting tail. *)
    List.fold_left
      (fun acc (s : Loadgen.stats) -> Stdlib.max acc (of_q s.Loadgen.live_q))
      0.0 stats
  in
  {
    cfg;
    shard_count = Cluster.shard_count cluster;
    windows = Cluster.windows_run cluster;
    events = Cluster.events_processed cluster;
    arrivals = sum (fun s -> s.Loadgen.arrivals);
    thinned = sum (fun s -> s.Loadgen.thinned);
    gated_off = sum (fun s -> s.Loadgen.gated_off);
    shed = sum (fun s -> s.Loadgen.flows_skipped);
    completed = sum (fun s -> s.Loadgen.flows_completed);
    live_end = sum (fun s -> s.Loadgen.live);
    live_p50 = p (fun q -> q.Obs.Timeseries.p50);
    live_p99 = p (fun q -> q.Obs.Timeseries.p99);
    bytes_offered = sum (fun s -> s.Loadgen.bytes_offered);
    incast_events = sum (fun s -> s.Loadgen.incast_events);
    churn_departures = sum (fun s -> s.Loadgen.churn_departures);
    churn_arrivals = sum (fun s -> s.Loadgen.churn_arrivals);
    churn_pending =
      sum_rk (fun rk -> match !(rk.pending) with Some _ -> 1 | None -> 0);
    express_acked =
      Array.fold_left (fun acc s -> acc + Stream.bytes_acked s) 0 express;
    generator_words =
      sum_rk (fun rk ->
          match rk.lg with Some lg -> Loadgen.state_words lg | None -> 0);
    core_routed = Core_switch.packets_routed mr.Multirack.core;
    core_dropped = Core_switch.packets_dropped mr.Multirack.core;
    tor_no_route_drops =
      sum_rk (fun rk -> Tor.Tor_switch.no_route_drops rk.tb.Testbed.tor);
    acl_drops = sum_rk (fun rk -> Tor.Tor_switch.acl_drops rk.tb.Testbed.tor);
  }

let print r =
  Tabular.print_title "soak: production-shaped load, multi-rack";
  Printf.printf
    "  workload=%s racks=%d servers/rack=%d duration=%.1fs base-rate=%.0f/s \
     churn-rate=%.1f/s\n"
    (workload_to_string r.cfg.workload)
    r.cfg.racks r.cfg.servers_per_rack r.cfg.duration r.cfg.base_rate
    r.cfg.churn_rate;
  Printf.printf "  shards=%d windows=%d events=%d\n" r.shard_count r.windows
    r.events;
  Printf.printf
    "  flows: admitted=%d completed=%d live(end)=%d thinned=%d gated-off=%d \
     shed=%d\n"
    r.arrivals r.completed r.live_end r.thinned r.gated_off r.shed;
  Printf.printf "  concurrency: p50=%.0f p99=%.0f (per-rack worst)\n" r.live_p50
    r.live_p99;
  Printf.printf "  offered: %d B heavy-tailed; incast events=%d\n"
    r.bytes_offered r.incast_events;
  Printf.printf
    "  churn: departures=%d arrivals=%d pending-at-end=%d (two-phase \
     migrations)\n"
    r.churn_departures r.churn_arrivals r.churn_pending;
  Printf.printf "  express lanes acked: %d B across %d cross-rack streams\n"
    r.express_acked
    (if r.cfg.racks < 2 then 0 else r.cfg.racks);
  Printf.printf "  generator state: %d words (flat in flow count)\n"
    r.generator_words;
  Printf.printf
    "  fabric: core routed/dropped %d/%d; tor no-route %d; acl drops %d\n"
    r.core_routed r.core_dropped r.tor_no_route_drops r.acl_drops
