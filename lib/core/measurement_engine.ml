module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fkey = Netcore.Fkey

type owner = {
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  direction : [ `Outgoing | `Incoming ];
}

type entry = {
  pattern : Fkey.Pattern.t;
  owner : owner;
  last_pps : float;
  last_bps : float;
  median_pps : float;
  median_bps : float;
  epochs_active : int;
  destinations : Netcore.Ipv4.t list;
}

type report = { interval_index : int; entries : entry list }

let max_destinations = 64

type record = {
  rec_owner : owner;
  pps_history : Dcsim.Ring.t;  (* one sample per epoch, capacity N*M *)
  bps_history : Dcsim.Ring.t;
  mutable rec_destinations : Netcore.Ipv4.t list;  (* most recent first, deduped *)
  mutable dest_count : int;
  (* Aggregate lifecycle span: first classified packet -> the first
     report interval with no active samples ("idle"), which is also
     when the record is dropped. *)
  mutable rec_span : Obs.Span.id;
}

type t = {
  engine : Engine.t;
  config : Config.t;
  me_name : string;
  poll : unit -> (Fkey.t * int * int) list;
  expire : unit -> unit;
  classify : Fkey.t -> (Fkey.Pattern.t * owner) option;
  records : (Fkey.Pattern.t, record) Hashtbl.t;
  (* Scratch for interval medians, grown to the history capacity once;
     reused across every aggregate so report building allocates no
     intermediate filtered lists. *)
  scratch : float array;
  mutable running : bool;
  mutable epochs : int;
  mutable intervals : int;
  mutable report_cb : report -> unit;
}

let m_epochs = Obs.Metrics.counter "fastrak.me.epochs"
let m_reports = Obs.Metrics.counter "fastrak.me.reports"
let m_counter_resets = Obs.Metrics.counter "fastrak.me.counter_resets"

let history_limit config =
  Stdlib.max 1 (Config.epochs_per_interval * config.Config.history_intervals)

let create ~engine ~config ~name ~poll ~expire ~classify =
  {
    engine;
    config;
    me_name = name;
    poll;
    expire;
    classify;
    records = Hashtbl.create 64;
    scratch = Array.make (history_limit config) 0.0;
    running = false;
    epochs = 0;
    intervals = 0;
    report_cb = ignore;
  }

let on_report t cb = t.report_cb <- cb

let add_destination record dst =
  if
    record.dest_count < max_destinations
    && not (List.exists (Netcore.Ipv4.equal dst) record.rec_destinations)
  then begin
    record.rec_destinations <- dst :: record.rec_destinations;
    record.dest_count <- record.dest_count + 1
  end

(* One epoch: expire idle flows, snapshot counters, snapshot again
   after poll_gap, fold the deltas into per-aggregate pps/bps samples.
   Expiring before the first snapshot keeps every delta what it would
   be without expiry: an expired flow had a zero delta last epoch, and
   if it resumes it reads as absent (0) in the first snapshot and
   counts from zero in the second. *)
let run_epoch t k =
  t.expire ();
  let snapshot () =
    let table = Fkey.Table.create 64 in
    List.iter (fun (flow, p, b) -> Fkey.Table.replace table flow (p, b)) (t.poll ());
    table
  in
  let snap1 = snapshot () in
  ignore
    (Engine.after t.engine t.config.Config.poll_gap (fun () ->
         let gap_sec = Simtime.span_to_sec t.config.Config.poll_gap in
         (* Aggregate deltas by pattern. *)
         let epoch_pps : (Fkey.Pattern.t, float * float * record) Hashtbl.t =
           Hashtbl.create 32
         in
         List.iter
           (fun (flow, p2, b2) ->
             match t.classify flow with
             | None -> ()
             | Some (pattern, owner) ->
                 let p1, b1 =
                   match Fkey.Table.find_opt snap1 flow with
                   | Some v -> v
                   | None -> (0, 0)
                 in
                 (* Flow_stats counters only grow between the two polls,
                    so this never fires on the stock sources. A source
                    whose counters can restart (a datapath that
                    re-creates an evicted flow) would read a negative
                    delta: a reset artefact, not negative traffic.
                    Clamp at zero so the sample cannot poison the
                    interval medians. *)
                 if p2 < p1 || b2 < b1 then Obs.Metrics.incr m_counter_resets;
                 let dp = float_of_int (Stdlib.max 0 (p2 - p1)) /. gap_sec in
                 let db =
                   float_of_int (Stdlib.max 0 (b2 - b1)) *. 8.0 /. gap_sec
                 in
                 let record =
                   match Hashtbl.find_opt t.records pattern with
                   | Some r -> r
                   | None ->
                       let r =
                         {
                           rec_owner = owner;
                           pps_history =
                             Dcsim.Ring.create ~capacity:(history_limit t.config);
                           bps_history =
                             Dcsim.Ring.create ~capacity:(history_limit t.config);
                           rec_destinations = [];
                           dest_count = 0;
                           rec_span = Obs.Span.none;
                         }
                       in
                       if Obs.Trace.enabled () then
                         r.rec_span <-
                           Obs.Span.start ~now:(Engine.now t.engine)
                             ~kind:"aggregate"
                             ~name:(Obs.Trace.pattern_to_string pattern)
                             ~track:t.me_name ();
                       Hashtbl.replace t.records pattern r;
                       r
                 in
                 if dp > 0.0 then add_destination record flow.Fkey.dst_ip;
                 let pps0, bps0, _ =
                   Option.value
                     (Hashtbl.find_opt epoch_pps pattern)
                     ~default:(0.0, 0.0, record)
                 in
                 Hashtbl.replace epoch_pps pattern (pps0 +. dp, bps0 +. db, record))
           (t.poll ());
         (* Every known aggregate gets a sample this epoch — zero if it
            saw no traffic — so epochs_active means what it says. The
            rings overwrite their oldest sample in place: no per-epoch
            trim, no history allocation. *)
         Hashtbl.iter
           (fun pattern record ->
             let pps, bps =
               match Hashtbl.find_opt epoch_pps pattern with
               | Some (p, b, _) -> (p, b)
               | None -> (0.0, 0.0)
             in
             Dcsim.Ring.push record.pps_history pps;
             Dcsim.Ring.push record.bps_history bps)
           t.records;
         t.epochs <- t.epochs + 1;
         Obs.Metrics.incr m_epochs;
         if Obs.Trace.enabled () then
           Obs.Trace.emit ~now:(Engine.now t.engine)
             (Obs.Trace.Epoch_tick
                { me = t.me_name; epoch = t.epochs; interval = t.intervals });
         k ()))

let positive x = x > 0.0

(* Median of the active (strictly positive) samples, via the shared
   scratch array: filter into the prefix, sort the prefix in place. *)
let median_active t ring =
  let n = Dcsim.Ring.filter_into positive ring t.scratch in
  Dcsim.Stats.median_in_place t.scratch n

let build_report t =
  let entries = ref [] in
  Hashtbl.filter_map_inplace
    (fun pattern record ->
      let actives = Dcsim.Ring.count positive record.pps_history in
      if actives = 0 then begin
        (* The aggregate went quiet for a whole history window, so it
           could only ever report zeros: close its lifecycle span
           (no-op if untraced) and drop the record. Medians and
           epochs_active count only positive samples, so a returning
           aggregate's new record reports what this one would have; it
           opens a new span and learns its destinations afresh. *)
        Obs.Span.finish ~now:(Engine.now t.engine) record.rec_span
          ~outcome:"idle";
        None
      end
      else begin
        let latest ring = Option.value (Dcsim.Ring.latest ring) ~default:0.0 in
        entries :=
          {
            pattern;
            owner = record.rec_owner;
            last_pps = latest record.pps_history;
            last_bps = latest record.bps_history;
            median_pps = median_active t record.pps_history;
            median_bps = median_active t record.bps_history;
            epochs_active = actives;
            destinations = record.rec_destinations;
          }
          :: !entries;
        Some record
      end)
    t.records;
  t.intervals <- t.intervals + 1;
  Obs.Metrics.incr m_reports;
  { interval_index = t.intervals; entries = !entries }

let start t =
  if not t.running then begin
    t.running <- true;
    let rec interval_loop epoch_in_interval =
      if t.running then
        ignore
          (Engine.after t.engine t.config.Config.epoch_period (fun () ->
               if t.running then
                 run_epoch t (fun () ->
                     let next = epoch_in_interval + 1 in
                     if next >= Config.epochs_per_interval then begin
                       t.report_cb (build_report t);
                       interval_loop 0
                     end
                     else interval_loop next)))
    in
    interval_loop 0
  end

let stop t = t.running <- false
let intervals_completed t = t.intervals
let aggregate_count t = Hashtbl.length t.records
