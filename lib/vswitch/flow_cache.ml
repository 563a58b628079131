(* Two-tier datapath flow cache, modelled on the OVS kernel cache:
   an exact-match first tier (EMC) in front of a wildcard "megaflow"
   second tier. Megaflow entries are keyed by the projection of the
   flow onto the mask of fields the deciding policy scan actually
   examined ([Rules.Policy.classify_masked]), so one entry absorbs
   every flow that agrees on those fields — typically all flows of a
   tenant pair under an allow-all ACL.

   Staleness is handled two ways:
   - eagerly: every cache operation first compares the policy's
     generation counter against the one captured at the last flush and
     drops everything on mismatch, so a rule mutation takes effect on
     the very next packet;
   - periodically: a revalidator sweep (driven from the engine clock by
     [Ovs]) evicts idle entries, re-checks each megaflow verdict
     against a fresh classification of its witness flow
     (defense-in-depth for any mutation path that forgot to bump the
     generation), and keeps the occupancy gauges honest.

   Both tiers are capacity-bounded with O(1) LRU eviction. *)

module Simtime = Dcsim.Simtime
module Fkey = Netcore.Fkey
module Pattern = Fkey.Pattern
module Mask = Pattern.Mask

type config = {
  exact_capacity : int;
  megaflow_capacity : int;
  idle_timeout : Simtime.span;
  revalidate_period : Simtime.span;
}

(* Defaults sized for the ROADMAP's rack-scale runs: the exact tier
   holds the hot flows, the megaflow tier the wildcarded long tail.
   10s idle / 500ms revalidation mirror OVS's flow-idle and revalidator
   cadences. *)
let default_config =
  ref
    {
      exact_capacity = 8192;
      megaflow_capacity = 2048;
      idle_timeout = Simtime.span_sec 10.0;
      revalidate_period = Simtime.span_ms 500.0;
    }

(* --- intrusive LRU list (front = most recently used) ---

   Circular doubly-linked list around a sentinel node, so prev/next are
   plain (non-option) pointers and [touch] — on every cache hit — is
   pure pointer surgery with zero allocation. The old option-typed
   links allocated two [Some] blocks per relink, i.e. per packet. *)

module Lru = struct
  type 'a node = {
    v : 'a;
    mutable prev : 'a node;
    mutable next : 'a node;
    mutable linked : bool;
  }

  type 'a t = { sentinel : 'a node; mutable len : int }

  (* [dummy] is never looked at: it only fills the sentinel's slot. *)
  let create ~dummy =
    let rec s = { v = dummy; prev = s; next = s; linked = false } in
    { sentinel = s; len = 0 }

  let length t = t.len

  let insert_after p n =
    n.prev <- p;
    n.next <- p.next;
    p.next.prev <- n;
    p.next <- n

  let push_front t v =
    let n = { v; prev = t.sentinel; next = t.sentinel; linked = true } in
    insert_after t.sentinel n;
    t.len <- t.len + 1;
    n

  let unlink t n =
    if n.linked then begin
      n.prev.next <- n.next;
      n.next.prev <- n.prev;
      n.prev <- n;
      n.next <- n;
      n.linked <- false;
      t.len <- t.len - 1
    end

  let touch t n =
    if n.linked && t.sentinel.next != n then begin
      n.prev.next <- n.next;
      n.next.prev <- n.prev;
      insert_after t.sentinel n
    end

  let back_value t = if t.len = 0 then None else Some t.sentinel.prev.v

  let clear t =
    t.sentinel.prev <- t.sentinel;
    t.sentinel.next <- t.sentinel;
    t.len <- 0
end

(* --- entries --- *)

type exact_entry = {
  ex_key : Fkey.Packed.t;  (* the table key; probes are allocation-free *)
  ex_flow : Fkey.t;  (* boxed form for traces and revalidation *)
  mutable ex_verdict : Rules.Policy.verdict;
  mutable ex_last_used : Simtime.t;
  mutable ex_node : exact_entry Lru.node option;
}

type mf_entry = {
  mf_pattern : Pattern.t;  (* projection of the witness onto the mask *)
  mf_mask : Mask.t;
  mutable mf_verdict : Rules.Policy.verdict;
  mf_witness : Fkey.t;  (* concrete flow the revalidator re-classifies *)
  mutable mf_last_used : Simtime.t;
  mutable mf_node : mf_entry Lru.node option;
}

type t = {
  name : string;
  config : config;
  policy : Rules.Policy.t;
  mutable seen_generation : int;
  exact : exact_entry Fkey.Packed.Table.t;
  exact_lru : exact_entry Lru.t;
  (* One hash table per distinct mask; a lookup probes each with the
     flow's projection. The number of distinct masks is bounded by the
     rule-set shape (at most 64), not by the flow count. *)
  mutable mf_tables : (Mask.t * mf_entry Pattern.Table.t) list;
  mf_lru : mf_entry Lru.t;
  mutable exact_hits : int;
  mutable megaflow_hits : int;
  mutable misses : int;
  mutable invalidations : int;  (* entries dropped as (potentially) stale *)
  mutable evictions : int;  (* entries dropped by capacity/idle pressure *)
}

type tier = Exact | Megaflow

(* --- metrics --- *)

let m_exact_hits = Obs.Metrics.counter "vswitch.cache.exact_hits"
let m_megaflow_hits = Obs.Metrics.counter "vswitch.cache.megaflow_hits"
let m_misses = Obs.Metrics.counter "vswitch.cache.misses"
let m_invalidations = Obs.Metrics.counter "vswitch.cache.invalidations"
let m_evictions = Obs.Metrics.counter "vswitch.cache.evictions"
let m_revalidations = Obs.Metrics.counter "vswitch.cache.revalidations"

(* Occupancy gauges are global (summed over every cache instance):
   insert/remove adjust them incrementally. *)
let g_exact = Obs.Metrics.gauge "vswitch.cache.exact_entries"
let g_megaflow = Obs.Metrics.gauge "vswitch.cache.megaflow_entries"

let gauge_add g delta =
  Obs.Metrics.set_gauge g (Obs.Metrics.gauge_value g +. delta)

(* --- construction / accessors --- *)

(* Placeholder values for the LRU sentinels; never read. *)
let dummy_flow =
  Fkey.make
    ~src_ip:(Netcore.Ipv4.of_int32 0l)
    ~dst_ip:(Netcore.Ipv4.of_int32 0l)
    ~src_port:0 ~dst_port:0 ~proto:Fkey.Tcp
    ~tenant:(Netcore.Tenant.of_int 0)

let dummy_verdict =
  { Rules.Policy.action = Rules.Security_rule.Deny; queue = 0; tunnel = None }

let dummy_exact =
  {
    ex_key = Fkey.Packed.of_fkey dummy_flow;
    ex_flow = dummy_flow;
    ex_verdict = dummy_verdict;
    ex_last_used = Simtime.zero;
    ex_node = None;
  }

let dummy_mf =
  {
    mf_pattern = Pattern.any;
    mf_mask = Mask.none;
    mf_verdict = dummy_verdict;
    mf_witness = dummy_flow;
    mf_last_used = Simtime.zero;
    mf_node = None;
  }

let create ?config ~name ~policy () =
  let config = match config with Some c -> c | None -> !default_config in
  {
    name;
    config;
    policy;
    seen_generation = Rules.Policy.generation policy;
    exact = Fkey.Packed.Table.create 256;
    exact_lru = Lru.create ~dummy:dummy_exact;
    mf_tables = [];
    mf_lru = Lru.create ~dummy:dummy_mf;
    exact_hits = 0;
    megaflow_hits = 0;
    misses = 0;
    invalidations = 0;
    evictions = 0;
  }

let config t = t.config
let exact_count t = Fkey.Packed.Table.length t.exact
let megaflow_count t = Lru.length t.mf_lru
let is_empty t = exact_count t = 0 && megaflow_count t = 0
let exact_hits t = t.exact_hits
let megaflow_hits t = t.megaflow_hits
let misses t = t.misses
let invalidations t = t.invalidations
let evictions t = t.evictions
let mem_exact t flow = Fkey.Packed.Table.mem t.exact (Fkey.Packed.of_fkey flow)

(* --- trace emission --- *)

let emit_invalidate t ~now ~reason ~dropped =
  if dropped > 0 && Obs.Trace.enabled () then
    Obs.Trace.emit ~now
      (Obs.Trace.Cache_invalidate
         {
           vif = t.name;
           reason;
           dropped;
           exact = exact_count t;
           megaflow = megaflow_count t;
         })

let emit_hit t ~now flow tier verdict =
  if Obs.Trace.enabled () then begin
    (* The fresh evaluation rides in the event so the cache-coherence
       monitor can check [cached = fresh] without a rules dependency. *)
    let fresh = Rules.Policy.classify t.policy flow in
    Obs.Trace.emit ~now
      (Obs.Trace.Cache_hit
         {
           vif = t.name;
           flow = Pattern.exact flow;
           tier = (match tier with Exact -> `Exact | Megaflow -> `Megaflow);
           cached = Rules.Policy.verdict_to_string verdict;
           fresh = Rules.Policy.verdict_to_string fresh;
         })
  end

let emit_miss t ~now flow =
  if Obs.Trace.enabled () then
    Obs.Trace.emit ~now
      (Obs.Trace.Cache_miss { vif = t.name; flow = Pattern.exact flow })

(* --- removal primitives --- *)

let remove_exact t e =
  Fkey.Packed.Table.remove t.exact e.ex_key;
  (match e.ex_node with
  | Some n ->
      Lru.unlink t.exact_lru n;
      e.ex_node <- None
  | None -> ());
  gauge_add g_exact (-1.0)

let mf_table_for t mask =
  List.find_opt (fun (m, _) -> Mask.equal m mask) t.mf_tables

let remove_mf t e =
  (match mf_table_for t e.mf_mask with
  | Some (_, tbl) -> Pattern.Table.remove tbl e.mf_pattern
  | None -> ());
  (match e.mf_node with
  | Some n ->
      Lru.unlink t.mf_lru n;
      e.mf_node <- None
  | None -> ());
  gauge_add g_megaflow (-1.0)

let flush t ~now ~reason =
  let dropped = exact_count t + megaflow_count t in
  if dropped > 0 then begin
    gauge_add g_exact (-.float_of_int (exact_count t));
    gauge_add g_megaflow (-.float_of_int (megaflow_count t));
    Fkey.Packed.Table.reset t.exact;
    Lru.clear t.exact_lru;
    t.mf_tables <- [];
    Lru.clear t.mf_lru;
    t.invalidations <- t.invalidations + dropped;
    Obs.Metrics.add m_invalidations dropped;
    emit_invalidate t ~now ~reason ~dropped
  end;
  dropped

(* Every entry point funnels through this: a policy mutation (any
   [Rules.Policy] setter bumps the generation) invalidates the whole
   cache before the next lookup can serve from it. *)
let check_generation t ~now =
  let g = Rules.Policy.generation t.policy in
  if g <> t.seen_generation then begin
    ignore (flush t ~now ~reason:"policy_change");
    t.seen_generation <- g
  end

(* --- insertion --- *)

let evict_exact_to_capacity t =
  while Fkey.Packed.Table.length t.exact >= t.config.exact_capacity do
    match Lru.back_value t.exact_lru with
    | Some victim ->
        remove_exact t victim;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr m_evictions
    | None -> Fkey.Packed.Table.reset t.exact (* unreachable: lru tracks table *)
  done

let insert_exact t ~key flow verdict ~now =
  if t.config.exact_capacity > 0 then
    match Fkey.Packed.Table.find_opt t.exact key with
    | Some e ->
        e.ex_verdict <- verdict;
        e.ex_last_used <- now;
        (match e.ex_node with
        | Some n -> Lru.touch t.exact_lru n
        | None -> ())
    | None ->
        evict_exact_to_capacity t;
        let e =
          {
            ex_key = key;
            ex_flow = flow;
            ex_verdict = verdict;
            ex_last_used = now;
            ex_node = None;
          }
        in
        e.ex_node <- Some (Lru.push_front t.exact_lru e);
        Fkey.Packed.Table.replace t.exact key e;
        gauge_add g_exact 1.0

let evict_mf_to_capacity t =
  while Lru.length t.mf_lru >= t.config.megaflow_capacity do
    match Lru.back_value t.mf_lru with
    | Some victim ->
        remove_mf t victim;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr m_evictions
    | None -> Lru.clear t.mf_lru
  done

let insert_megaflow t flow verdict mask ~now =
  if t.config.megaflow_capacity > 0 then begin
    let proj = Mask.project mask flow in
    let tbl =
      match mf_table_for t mask with
      | Some (_, tbl) -> tbl
      | None ->
          let tbl = Pattern.Table.create 64 in
          t.mf_tables <- (mask, tbl) :: t.mf_tables;
          tbl
    in
    match Pattern.Table.find_opt tbl proj with
    | Some e ->
        e.mf_verdict <- verdict;
        e.mf_last_used <- now;
        (match e.mf_node with Some n -> Lru.touch t.mf_lru n | None -> ())
    | None ->
        evict_mf_to_capacity t;
        let e =
          {
            mf_pattern = proj;
            mf_mask = mask;
            mf_verdict = verdict;
            mf_witness = flow;
            mf_last_used = now;
            mf_node = None;
          }
        in
        e.mf_node <- Some (Lru.push_front t.mf_lru e);
        Pattern.Table.replace tbl proj e;
        gauge_add g_megaflow 1.0
  end

(* --- the datapath API --- *)

(* The steady-state per-packet path. On a hit, every step is either an
   int/pointer mutation or a guarded no-op: the packed-key probe
   ([Packed.hash] reads a precomputed field, [Packed.equal] compares
   three ints, and [Hashtbl.find] raising the preallocated [Not_found]
   avoids the [Some] box of [find_opt]), the LRU touch is sentinel
   pointer surgery, hit accounting bumps mutable ints, and the trace
   guard is one load and branch when the sink is disabled. Measured at
   zero minor words per op by [hotpath/cache-hit-exact] in
   BENCH_hotpath.json; the @alloc-check alias enforces it. *)
let find_exact t key ~now =
  check_generation t ~now;
  let e = Fkey.Packed.Table.find t.exact key in
  e.ex_last_used <- now;
  (match e.ex_node with Some n -> Lru.touch t.exact_lru n | None -> ());
  t.exact_hits <- t.exact_hits + 1;
  Obs.Metrics.incr m_exact_hits;
  emit_hit t ~now e.ex_flow Exact e.ex_verdict;
  e.ex_verdict

(* Wildcard-tier probe, taken only after an exact-tier miss. Counts the
   megaflow hit or the overall miss; [Mask.project] allocates one
   pattern per probed mask table, which is fine off the steady state. *)
let lookup_wild t ~key flow ~now =
  let rec probe = function
    | [] -> None
    | (mask, tbl) :: rest -> (
        match Pattern.Table.find_opt tbl (Mask.project mask flow) with
        | Some e -> Some e
        | None -> probe rest)
  in
  match probe t.mf_tables with
  | Some e ->
      e.mf_last_used <- now;
      (match e.mf_node with Some n -> Lru.touch t.mf_lru n | None -> ());
      t.megaflow_hits <- t.megaflow_hits + 1;
      Obs.Metrics.incr m_megaflow_hits;
      emit_hit t ~now flow Megaflow e.mf_verdict;
      (* Promote into the exact tier so the flow's next packets take
         the cheapest path (OVS's EMC insertion on megaflow hit). *)
      insert_exact t ~key flow e.mf_verdict ~now;
      Some e.mf_verdict
  | None ->
      t.misses <- t.misses + 1;
      Obs.Metrics.incr m_misses;
      emit_miss t ~now flow;
      None

let lookup t flow ~now =
  let key = Fkey.Packed.of_fkey flow in
  match find_exact t key ~now with
  | v -> Some (v, Exact)
  | exception Not_found -> (
      match lookup_wild t ~key flow ~now with
      | Some v -> Some (v, Megaflow)
      | None -> None)

let install_keyed t ~key flow ~now =
  check_generation t ~now;
  let verdict, mask = Rules.Policy.classify_masked t.policy flow in
  insert_megaflow t flow verdict mask ~now;
  insert_exact t ~key flow verdict ~now;
  verdict

let install t flow ~now = install_keyed t ~key:(Fkey.Packed.of_fkey flow) flow ~now

let invalidate_flow t flow ~now ~reason =
  check_generation t ~now;
  let dropped = ref 0 in
  (match Fkey.Packed.Table.find_opt t.exact (Fkey.Packed.of_fkey flow) with
  | Some e ->
      remove_exact t e;
      incr dropped
  | None -> ());
  List.iter
    (fun (mask, tbl) ->
      match Pattern.Table.find_opt tbl (Mask.project mask flow) with
      | Some e ->
          remove_mf t e;
          incr dropped
      | None -> ())
    t.mf_tables;
  if !dropped > 0 then begin
    t.invalidations <- t.invalidations + !dropped;
    Obs.Metrics.add m_invalidations !dropped;
    emit_invalidate t ~now ~reason ~dropped:!dropped
  end;
  !dropped

let idle_expired t ~now last_used =
  Simtime.span_compare (Simtime.diff now last_used) t.config.idle_timeout >= 0

let revalidate t ~now ~reason =
  (* The generation check catches announced policy mutations wholesale;
     the rest of the sweep evicts idle entries and re-checks each
     megaflow verdict against a fresh classification of its witness —
     cheap because the megaflow tier is small by construction, and a
     safety net for any mutation that failed to announce itself. Exact
     entries are only idle-checked here: their coherence is enforced by
     the generation flush (and spot-checked at hit time by the
     cache-coherence monitor when tracing is on). *)
  check_generation t ~now;
  Obs.Metrics.incr m_revalidations;
  let idle = ref 0 and stale = ref 0 in
  let expired_exact =
    Fkey.Packed.Table.fold
      (fun _ e acc -> if idle_expired t ~now e.ex_last_used then e :: acc else acc)
      t.exact []
  in
  List.iter
    (fun e ->
      remove_exact t e;
      incr idle)
    expired_exact;
  let dead_mf =
    List.concat_map
      (fun (_, tbl) ->
        Pattern.Table.fold
          (fun _ e acc ->
            if idle_expired t ~now e.mf_last_used then (`Idle, e) :: acc
            else begin
              let verdict', mask' =
                Rules.Policy.classify_masked t.policy e.mf_witness
              in
              if verdict' <> e.mf_verdict || not (Mask.equal mask' e.mf_mask)
              then (`Stale, e) :: acc
              else acc
            end)
          tbl [])
      t.mf_tables
  in
  List.iter
    (fun (kind, e) ->
      remove_mf t e;
      match kind with `Idle -> incr idle | `Stale -> incr stale)
    dead_mf;
  if !idle > 0 then begin
    t.evictions <- t.evictions + !idle;
    Obs.Metrics.add m_evictions !idle;
    emit_invalidate t ~now ~reason:"idle" ~dropped:!idle
  end;
  if !stale > 0 then begin
    t.invalidations <- t.invalidations + !stale;
    Obs.Metrics.add m_invalidations !stale;
    emit_invalidate t ~now ~reason ~dropped:!stale
  end;
  !idle + !stale
