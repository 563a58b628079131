module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Packet = Netcore.Packet
module Fkey = Netcore.Fkey
module Cost = Compute.Cost_params

(* Userspace slow-path (upcall) model: fixed kernel->user->kernel cost
   plus a linear scan over the configured ACLs. Subsequent packets hit
   the two-tier datapath cache (exact tier, then wildcard megaflows —
   see {!Flow_cache}), so rule-set size does not affect steady-state
   cost — matching the paper's 10,000-rule result. Cached verdicts are
   kept coherent with the live policy by generation checks plus a
   periodic revalidator sweep. *)
let upcall_fixed_cost = Simtime.span_us 30.0
let upcall_per_rule_cost_us = 0.02
let upcall_extra_latency = Simtime.span_us 100.0

let m_tx = Obs.Metrics.counter "vswitch.tx_packets"
let m_rx = Obs.Metrics.counter "vswitch.rx_packets"
let m_drops = Obs.Metrics.counter "vswitch.drops"
let m_security_drops = Obs.Metrics.counter "vswitch.security_drops"
let m_upcalls = Obs.Metrics.counter "vswitch.upcalls"
let m_kernel_hits = Obs.Metrics.counter "vswitch.kernel_hits"

(* Per-tenant dimensional breakdowns of the flat counters above. A
   series lookup is one int-keyed hash probe (no string building, no
   allocation), so these stay on unconditionally like the flat
   counters. [vswitch.rx_bytes] doubles as the SLO goodput feed. *)
let fam_tx = Obs.Metrics.counter_family ~label:"tenant" "vswitch.tx_packets"
let fam_rx = Obs.Metrics.counter_family ~label:"tenant" "vswitch.rx_packets"
let fam_drops = Obs.Metrics.counter_family ~label:"tenant" "vswitch.drops"

let fam_security_drops =
  Obs.Metrics.counter_family ~label:"tenant" "vswitch.security_drops"

let fam_rx_bytes = Obs.Metrics.counter_family ~label:"tenant" "vswitch.rx_bytes"

type direction = Tx | Rx

(* Sentinel for pooled packet arrays; never processed. Built literally
   rather than via [Packet.create] so module init does not consume a
   packet uid (uids appear in traces). *)
let dummy_flow =
  Fkey.make
    ~src_ip:(Netcore.Ipv4.of_int32 0l)
    ~dst_ip:(Netcore.Ipv4.of_int32 0l)
    ~src_port:0 ~dst_port:0 ~proto:Fkey.Tcp
    ~tenant:(Netcore.Tenant.of_int 0)

let dummy_pkt =
  {
    Packet.flow = dummy_flow;
    payload = 0;
    l4 = Packet.Plain;
    bulk = false;
    encaps = [];
    hops = 0;
    sent_at = Simtime.zero;
    uid = -1;
  }

(* One vhost batch: packets and directions in arrival order, plus the
   per-batch flow groups (distinct flows, first-seen order). Batches
   are pooled per VIF and recycled once every group's classification
   continuation has run, so steady-state batching allocates no
   per-packet queue cells, tuples or group lists — just array
   writes. *)
type batch = {
  mutable b_pkts : Packet.t array;
  mutable b_dirs : direction array;
  mutable b_grp : int array;  (* per item: index into [g_flows] *)
  mutable b_len : int;
  mutable g_flows : Fkey.t array;
  mutable g_count : int;
  mutable pending : int;  (* groups whose continuation has not run yet *)
}

let create_batch () =
  {
    b_pkts = Array.make 64 dummy_pkt;
    b_dirs = Array.make 64 Tx;
    b_grp = Array.make 64 (-1);
    b_len = 0;
    g_flows = Array.make 16 dummy_flow;
    g_count = 0;
    pending = 0;
  }

let batch_push b pkt direction =
  (if b.b_len = Array.length b.b_pkts then begin
     let n = Array.length b.b_pkts in
     b.b_pkts <- Array.append b.b_pkts (Array.make n dummy_pkt);
     b.b_dirs <- Array.append b.b_dirs (Array.make n Tx);
     b.b_grp <- Array.append b.b_grp (Array.make n (-1))
   end);
  b.b_pkts.(b.b_len) <- pkt;
  b.b_dirs.(b.b_len) <- direction;
  b.b_grp.(b.b_len) <- -1;
  b.b_len <- b.b_len + 1

let batch_push_group b flow =
  (if b.g_count = Array.length b.g_flows then
     let n = Array.length b.g_flows in
     b.g_flows <- Array.append b.g_flows (Array.make n dummy_flow));
  let g = b.g_count in
  b.g_flows.(g) <- flow;
  b.g_count <- g + 1;
  g

type vif = {
  engine : Engine.t;
  name : string;
  policy : Rules.Policy.t;
  deliver : Packet.t -> unit;
  vhost : Compute.Cpu_pool.t;
  tx_shaper : Shaping.Shaper.t;
  cache : Flow_cache.t;
  mutable filling : batch;  (* accumulating until the next vhost wakeup *)
  mutable free_batches : batch list;  (* recycled, fully-drained batches *)
  mutable wakeup_pending : bool;
}

type t = {
  engine : Engine.t;
  config : Cost.vswitch_config;
  cache_config : Flow_cache.config;
  host_pool : Compute.Cpu_pool.t;
  server_ip : Netcore.Ipv4.t;
  transmit : Packet.t -> unit;
  mutable vifs : vif list;
  (* tenant -> ip -> vif. Two int-keyed probes instead of one tuple
     key: a (tenant, ip) tuple cannot pack into a single 63-bit int
     (both are full 32-bit domains) and building the tuple per
     delivered packet was hot-path garbage. *)
  vif_by_vm : (int, (int, vif) Hashtbl.t) Hashtbl.t;
  (* Scratch for batch grouping (flow -> group index); cleared and
     refilled per batch, only ever used synchronously. *)
  group_tbl : int Fkey.Table.t;
  stats : Flow_stats.t;
  blocked : unit Fkey.Table.t;
  mutable sweeper_active : bool;
  mutable packets_sent : int;
  mutable packets_dropped : int;
  mutable security_drops : int;
  mutable upcalls : int;
  mutable kernel_hits : int;
}

let create ~engine ~config ~host_pool ~server_ip ~transmit =
  {
    engine;
    config;
    cache_config = !Flow_cache.default_config;
    host_pool;
    server_ip;
    transmit;
    vifs = [];
    vif_by_vm = Hashtbl.create 16;
    group_tbl = Fkey.Table.create 64;
    stats = Flow_stats.create ();
    blocked = Fkey.Table.create 16;
    sweeper_active = false;
    packets_sent = 0;
    packets_dropped = 0;
    security_drops = 0;
    upcalls = 0;
    kernel_hits = 0;
  }


let vm_register t ~tenant ~ip vif =
  let tkey = Netcore.Tenant.to_int tenant in
  let inner =
    match Hashtbl.find_opt t.vif_by_vm tkey with
    | Some inner -> inner
    | None ->
        let inner = Hashtbl.create 8 in
        Hashtbl.replace t.vif_by_vm tkey inner;
        inner
  in
  Hashtbl.replace inner ((ip : Netcore.Ipv4.t) :> int) vif

(* Allocation-free per-packet VM lookup: two [Hashtbl.find]s on int
   keys, raising [Not_found] past both tables. *)
let vm_lookup t ~tenant ~ip =
  Hashtbl.find
    (Hashtbl.find t.vif_by_vm (Netcore.Tenant.to_int tenant))
    ((ip : Netcore.Ipv4.t) :> int)

let is_blocked t flow = Fkey.Table.mem t.blocked flow

let drop t pkt =
  t.packets_dropped <- t.packets_dropped + 1;
  Obs.Metrics.incr m_drops;
  Obs.Metrics.incr
    (Obs.Metrics.labeled_counter fam_drops (pkt.Packet.flow.Fkey.tenant :> int))

let add_vif t ~policy ~deliver =
  let engine = t.engine in
  let index = List.length t.vifs in
  let name = Printf.sprintf "vif%d" index in
  let guard_transmit pkt =
    if is_blocked t pkt.Packet.flow then drop t pkt
    else begin
      t.packets_sent <- t.packets_sent + 1;
      Obs.Metrics.incr m_tx;
      Obs.Metrics.incr
        (Obs.Metrics.labeled_counter fam_tx (pkt.Packet.flow.Fkey.tenant :> int));
      t.transmit pkt
    end
  in
  let guard_deliver pkt =
    if is_blocked t pkt.Packet.flow then drop t pkt else deliver pkt
  in
  let vif =
    {
      engine;
      name;
      policy;
      deliver = guard_deliver;
      vhost = Compute.Cpu_pool.create ~engine ~cpus:1;
      tx_shaper =
        Shaping.Shaper.create ~engine
          ~spec:(Rules.Policy.tx_limit policy)
          ~forward:guard_transmit ();
      cache = Flow_cache.create ~config:t.cache_config ~name ~policy ();
      filling = create_batch ();
      free_batches = [];
      wakeup_pending = false;
    }
  in
  t.vifs <- vif :: t.vifs;
  vm_register t ~tenant:(Rules.Policy.tenant policy)
    ~ip:(Rules.Policy.vm_ip policy) vif;
  vif

let vif_policy vif = vif.policy
let vif_cache vif = vif.cache

(* A rate-limit re-split does not change any verdict, so the caches are
   only revalidated (idle sweep + witness re-check), never flushed:
   nothing that is still correct gets dropped. *)
let revalidate_vif vif ~reason =
  ignore (Flow_cache.revalidate vif.cache ~now:(Engine.now vif.engine) ~reason)

let set_vif_tx_limit vif spec =
  Shaping.Shaper.set_spec vif.tx_shaper spec;
  revalidate_vif vif ~reason:"fps_resplit"

let vif_tx_limit vif = Shaping.Shaper.spec vif.tx_shaper
let vif_tx_backlogged_seconds vif = Shaping.Shaper.backlogged_seconds vif.tx_shaper
let vif_tx_bytes vif = Shaping.Shaper.forwarded_bytes vif.tx_shaper
let vif_vhost_pool vif = vif.vhost

(* Effective config for cost purposes: a FasTrak-installed rate limit
   makes the htb code path run even if the experiment's static config
   did not ask for rate limiting. *)
let effective_config t vif =
  if Rules.Rate_limit_spec.is_unlimited (Shaping.Shaper.spec vif.tx_shaper) then
    t.config
  else { t.config with Cost.rate_limiting = true }

(* The revalidator sweep runs off the engine clock only while at least
   one VIF cache holds entries; it stops itself when they all drain so
   an [Engine.run] without [~until] still terminates. *)
let revalidate_all t ~reason =
  let now = Engine.now t.engine in
  List.iter (fun vif -> ignore (Flow_cache.revalidate vif.cache ~now ~reason)) t.vifs

let maybe_start_sweeper t =
  if not t.sweeper_active then begin
    t.sweeper_active <- true;
    Engine.every t.engine t.cache_config.Flow_cache.revalidate_period (fun () ->
        revalidate_all t ~reason:"revalidate";
        if List.exists (fun vif -> not (Flow_cache.is_empty vif.cache)) t.vifs
        then `Continue
        else begin
          t.sweeper_active <- false;
          `Stop
        end)
  end

(* Classification against the two-tier datapath cache; a miss pays the
   userspace upcall in CPU and latency, then installs both tiers. The
   steady-state exact-tier hit — [find_exact] plus the two counter
   bumps — allocates nothing; [lookup_wild] and the upcall are the
   (allowed-to-allocate) miss paths. *)
let classify t vif flow k =
  match Flow_cache.find_exact vif.cache flow ~now:(Engine.now t.engine) with
  | verdict ->
      t.kernel_hits <- t.kernel_hits + 1;
      Obs.Metrics.incr m_kernel_hits;
      k verdict
  | exception Not_found -> (
      match Flow_cache.lookup_wild vif.cache flow ~now:(Engine.now t.engine) with
      | Some verdict ->
          t.kernel_hits <- t.kernel_hits + 1;
          Obs.Metrics.incr m_kernel_hits;
          k verdict
      | None ->
          t.upcalls <- t.upcalls + 1;
          Obs.Metrics.incr m_upcalls;
          let scan_cost =
            if t.config.Cost.security_rules then
              Simtime.span_us
                (upcall_per_rule_cost_us
                *. float_of_int (Rules.Policy.acl_count vif.policy))
            else Simtime.span_zero
          in
          let cost = Simtime.span_add upcall_fixed_cost scan_cost in
          Compute.Cpu_pool.submit t.host_pool ~cost (fun () ->
              ignore
                (Engine.after t.engine upcall_extra_latency (fun () ->
                     let verdict =
                       Flow_cache.install vif.cache flow ~now:(Engine.now t.engine)
                     in
                     maybe_start_sweeper t;
                     k verdict))))

let wire_frames payload =
  Stdlib.max 1
    ((payload + Netcore.Hdr.max_tcp_payload - 1) / Netcore.Hdr.max_tcp_payload)

let vhost_cost config pkt =
  let payload = pkt.Packet.payload in
  let units = Cost.units_for config ~bytes_len:payload in
  let unit_bytes = Stdlib.max 1 (payload / units) in
  let per_unit = Cost.vhost_serial_cost config ~unit_bytes in
  let raw = Simtime.span_scale (float_of_int units) per_unit in
  (* Bulk trains amortise the vhost wakeup over several descriptors;
     request/response packets pay it in full every time (§3: the burst
     TPS gap between VIF and SR-IOV). *)
  if pkt.Packet.bulk then
    Simtime.span_scale (1.0 /. Cost.vhost_stream_batching) raw
  else raw

let softirq_cost_of config ~payload =
  let units = Cost.units_for config ~bytes_len:payload in
  let unit_bytes = Stdlib.max 1 (payload / units) in
  Simtime.span_scale (float_of_int units) (Cost.softirq_cost config ~unit_bytes)

(* Post-classification handling of one packet of an allowed/denied
   flow-group inside a vhost batch. *)
let apply_verdict t vif config verdict pkt direction =
  match verdict.Rules.Policy.action with
  | Rules.Security_rule.Deny ->
      t.security_drops <- t.security_drops + 1;
      Obs.Metrics.incr m_security_drops;
      Obs.Metrics.incr
        (Obs.Metrics.labeled_counter fam_security_drops
           (pkt.Packet.flow.Fkey.tenant :> int));
      drop t pkt
  | Rules.Security_rule.Allow -> (
      let flow = pkt.Packet.flow in
      Flow_stats.record t.stats flow
        ~packets:(wire_frames pkt.Packet.payload)
        ~bytes:pkt.Packet.payload;
      match direction with
      | Tx ->
          let finish () =
            if config.Cost.tunneling then begin
              match verdict.Rules.Policy.tunnel with
              | None -> drop t pkt  (* unknown destination *)
              | Some ep ->
                  Packet.push_encap pkt
                    (Packet.Vxlan
                       {
                         tunnel_dst = ep.Rules.Tunnel_rule.server_ip;
                         vni = flow.Fkey.tenant;
                       });
                  Shaping.Shaper.enqueue vif.tx_shaper pkt
            end
            else Shaping.Shaper.enqueue vif.tx_shaper pkt
          in
          Compute.Cpu_pool.submit t.host_pool
            ~cost:(softirq_cost_of config ~payload:pkt.Packet.payload)
            finish
      | Rx ->
          Obs.Metrics.incr m_rx;
          let tenant = (flow.Fkey.tenant :> int) in
          Obs.Metrics.incr (Obs.Metrics.labeled_counter fam_rx tenant);
          Obs.Metrics.add
            (Obs.Metrics.labeled_counter fam_rx_bytes tenant)
            pkt.Packet.payload;
          Obs.Slo.observe_goodput ~tenant ~now:(Engine.now t.engine)
            pkt.Packet.payload;
          vif.deliver pkt)

(* A group's continuation has run: when the last one finishes, scrub
   the packet references (so the pool does not retain them past the
   batch) and recycle the batch onto the VIF's free list. *)
let release_group vif batch =
  batch.pending <- batch.pending - 1;
  if batch.pending = 0 then begin
    for i = 0 to batch.b_len - 1 do
      batch.b_pkts.(i) <- dummy_pkt
    done;
    for g = 0 to batch.g_count - 1 do
      batch.g_flows.(g) <- dummy_flow
    done;
    batch.b_len <- 0;
    batch.g_count <- 0;
    vif.free_batches <- batch :: vif.free_batches
  end

(* One classification per distinct flow in the batch; the blocked set
   is re-checked at service time so a block landing while the batch sat
   in the queue still takes effect. Groups run in first-seen flow
   order, packets within a group in arrival order — same as the old
   list-based grouping, without materializing per-group lists. *)
let process_batch t vif config batch =
  batch.pending <- batch.g_count;
  for g = 0 to batch.g_count - 1 do
    let flow = batch.g_flows.(g) in
    if is_blocked t flow then begin
      for i = 0 to batch.b_len - 1 do
        if batch.b_grp.(i) = g then drop t batch.b_pkts.(i)
      done;
      release_group vif batch
    end
    else
      classify t vif flow (fun verdict ->
          for i = 0 to batch.b_len - 1 do
            if batch.b_grp.(i) = g then
              apply_verdict t vif config verdict batch.b_pkts.(i) batch.b_dirs.(i)
          done;
          release_group vif batch)
  done

(* The vhost wakeup detaches the batch that accumulated on the VIF and
   services it: serialized cost is the sum of the per-packet vhost work
   plus one classification dispatch per distinct flow
   ([Cost.classify_lookup_us]) — so a single-packet batch costs exactly
   what the unbatched path used to. Grouping (first-seen flow order)
   and the cost fold share one pass; the flow->group scratch table is
   reused across batches. *)
let start_batch t vif () =
  vif.wakeup_pending <- false;
  let batch = vif.filling in
  if batch.b_len > 0 then begin
    (vif.filling <-
       (match vif.free_batches with
       | b :: rest ->
           vif.free_batches <- rest;
           b
       | [] -> create_batch ()));
    let config = effective_config t vif in
    Fkey.Table.clear t.group_tbl;
    let cost = ref Simtime.span_zero in
    for i = 0 to batch.b_len - 1 do
      let pkt = batch.b_pkts.(i) in
      let flow = pkt.Packet.flow in
      (match Fkey.Table.find t.group_tbl flow with
      | g -> batch.b_grp.(i) <- g
      | exception Not_found ->
          let g = batch_push_group batch flow in
          Fkey.Table.replace t.group_tbl flow g;
          batch.b_grp.(i) <- g);
      cost := Simtime.span_add !cost (vhost_cost config pkt)
    done;
    let cost =
      Simtime.span_add !cost
        (Simtime.span_us (Cost.classify_lookup_us *. float_of_int batch.g_count))
    in
    Compute.Cpu_pool.submit vif.vhost ~cost (fun () ->
        process_batch t vif config batch)
  end

let enqueue_vhost t vif pkt direction =
  batch_push vif.filling pkt direction;
  if not vif.wakeup_pending then begin
    vif.wakeup_pending <- true;
    Compute.Cpu_pool.submit vif.vhost ~cost:Simtime.span_zero (start_batch t vif)
  end

let transmit_from_vif t vif pkt =
  if is_blocked t pkt.Packet.flow then drop t pkt
  else enqueue_vhost t vif pkt Tx

let receive_from_nic t pkt =
  let deliver_local inner_pkt =
    let flow = inner_pkt.Packet.flow in
    match vm_lookup t ~tenant:flow.Fkey.tenant ~ip:flow.Fkey.dst_ip with
    | exception Not_found -> drop t inner_pkt
    | vif ->
        let config = effective_config t vif in
        Compute.Cpu_pool.submit t.host_pool
          ~cost:(softirq_cost_of config ~payload:inner_pkt.Packet.payload)
          (fun () -> enqueue_vhost t vif inner_pkt Rx)
  in
  if t.config.Cost.tunneling then begin
    match Packet.outer_encap pkt with
    | Some (Packet.Vxlan { tunnel_dst; _ }) ->
        if Netcore.Ipv4.equal tunnel_dst t.server_ip then begin
          ignore (Packet.pop_encap pkt);
          deliver_local pkt
        end
        else drop t pkt
    | Some (Packet.Vlan _ | Packet.Gre _) | None ->
        (* Tunneling is configured but the packet is not ours. *)
        drop t pkt
  end
  else deliver_local pkt

let active_flows t = Flow_stats.to_list t.stats

let blocked_flows t = Fkey.Table.fold (fun flow () acc -> flow :: acc) t.blocked []

let set_flow_blocked t flow blocked =
  (if blocked then Fkey.Table.replace t.blocked flow ()
   else Fkey.Table.remove t.blocked flow);
  (* Blocking changes what the datapath must do with the flow right
     now; unblocking restores slow-path service. Either way any cached
     fast-path verdict for the flow is suspect, so every VIF drops its
     exact entry and the megaflows covering the flow. *)
  let now = Engine.now t.engine in
  let reason = if blocked then "flow_blocked" else "flow_unblocked" in
  List.iter
    (fun vif -> ignore (Flow_cache.invalidate_flow vif.cache flow ~now ~reason))
    t.vifs

let packets_sent t = t.packets_sent
let packets_dropped t = t.packets_dropped
let security_drops t = t.security_drops
let upcalls t = t.upcalls
let kernel_hits t = t.kernel_hits
