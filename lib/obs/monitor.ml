module Simtime = Dcsim.Simtime

type mode = Warn | Strict

type violation = {
  at : Simtime.t;
  monitor : string;
  detail : string;
  context : (Simtime.t * Trace.event) list;
}

exception Strict_violation of violation

(* Migration progress per VM, keyed by the Ipv4 string. *)
type mg_state = Idle | Preparing

(* Delivery progress per flow, keyed by the flow label of its
   Flow_progress heartbeats. [progress_at] is the last instant the flow
   either delivered something new or had no outstanding demand. *)
type flow_state = {
  mutable fl_sent : int;
  mutable fl_acked : int;
  mutable progress_at : Simtime.t;
}

type t = {
  mode : mode;
  mutable violations_rev : violation list;
  counts : (string, int ref) Hashtbl.t;
  mutable checked : int;
  (* last Rule_pushed seq per server *)
  last_seq : (string, int) Hashtbl.t;
  (* span id -> kind, for begin/end pairing *)
  open_spans : (int, string) Hashtbl.t;
  migrations : (string, mg_state) Hashtbl.t;
  flows : (string, flow_state) Hashtbl.t;
}

(* How long a flow with demand may go without delivery progress:
   comfortably above the worst-case lane-failover time, so a healthy
   failover never trips it. *)
let no_blackhole_window = Simtime.span_ms 1000.0

(* Flight-recorder events each violation record embeds as context. *)
let context_events = 8

let create ?(mode = Warn) () =
  {
    mode;
    violations_rev = [];
    counts = Hashtbl.create 8;
    checked = 0;
    last_seq = Hashtbl.create 8;
    open_spans = Hashtbl.create 64;
    migrations = Hashtbl.create 8;
    flows = Hashtbl.create 16;
  }


let violation_to_string v =
  Printf.sprintf "[%.6fs] %s: %s" (Simtime.to_sec v.at) v.monitor v.detail

let context_to_string v =
  if v.context = [] then ""
  else begin
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "  last %d flight-recorder event(s) before the breach:\n"
         (List.length v.context));
    List.iter
      (fun (at, ev) ->
        Buffer.add_string b "    ";
        Trace.encode_into b at ev;
        Buffer.add_char b '\n')
      v.context;
    Buffer.contents b
  end

let violate t ~at ~monitor detail =
  (* Context comes from the installed flight recorder (if any): the
     last few events leading up to the breach, so a strict-mode exit is
     debuggable without a full trace. The recorder installs its tee
     after the monitor's, so it has already recorded the offending
     event by the time the monitor observes it. *)
  let context =
    match Flight.installed () with
    | Some ring -> Flight.last ring context_events
    | None -> []
  in
  let v = { at; monitor; detail; context } in
  t.violations_rev <- v :: t.violations_rev;
  (match Hashtbl.find_opt t.counts monitor with
  | Some r -> incr r
  | None -> Hashtbl.replace t.counts monitor (ref 1));
  if t.mode = Strict then raise (Strict_violation v)

(* A little slack for float accumulation in the FPS conservation bound:
   relative to the contracted limit, never below 1 b/s. *)
let fps_epsilon total = Float.max 1.0 (1e-9 *. Float.abs total)

let observe t at (ev : Trace.event) =
  t.checked <- t.checked + 1;
  match ev with
  | Trace.Tcam_install { used; capacity; entries; _ }
  | Trace.Tcam_evict { used; capacity; entries; _ } ->
      if entries < 0 then
        violate t ~at ~monitor:"tcam_capacity"
          (Printf.sprintf "negative entry count %d" entries);
      if used < 0 || used > capacity then
        violate t ~at ~monitor:"tcam_capacity"
          (Printf.sprintf "occupancy %d outside [0, %d]" used capacity)
  | Trace.Fps_split { vm_ip; soft_bps; hard_bps; total_bps; overflow_bps; _ } ->
      (* Conservation: each path gets its share plus the overflow
         allowance O, so the split may exceed the contracted limit by at
         most 2 O (lib/core/fps.ml). *)
      let bound = total_bps +. (2.0 *. overflow_bps) +. fps_epsilon total_bps in
      if
        Float.is_nan soft_bps || Float.is_nan hard_bps
        || soft_bps < 0.0 || hard_bps < 0.0
        || soft_bps +. hard_bps > bound
      then
        violate t ~at ~monitor:"fps_conservation"
          (Printf.sprintf
             "vm %s: soft %.0f + hard %.0f > total %.0f + 2*overflow %.0f"
             (Netcore.Ipv4.to_string vm_ip)
             soft_bps hard_bps total_bps overflow_bps)
  | Trace.Rule_pushed { server; seq; _ } -> (
      match Hashtbl.find_opt t.last_seq server with
      | Some prev when seq <= prev ->
          violate t ~at ~monitor:"seq_monotonic"
            (Printf.sprintf "%s: seq %d after %d" server seq prev)
      | _ -> Hashtbl.replace t.last_seq server seq)
  | Trace.Span_begin { span; kind; _ } ->
      if Hashtbl.mem t.open_spans span then
        violate t ~at ~monitor:"span_pairing"
          (Printf.sprintf "span %d begun twice" span)
      else Hashtbl.replace t.open_spans span kind
  | Trace.Span_end { span; outcome } ->
      (* "Installed without Pending" is the install state machine
         skipping its opening state: an install span must have begun
         before it can end — and so must every other span. *)
      if not (Hashtbl.mem t.open_spans span) then
        violate t ~at ~monitor:"span_pairing"
          (Printf.sprintf "span %d ended (%s) without begin" span outcome)
      else Hashtbl.remove t.open_spans span
  | Trace.Migration_stage { vm_ip; stage } -> (
      let key = Netcore.Ipv4.to_string vm_ip in
      let state =
        Option.value (Hashtbl.find_opt t.migrations key) ~default:Idle
      in
      match (state, stage) with
      | Idle, `Prepare -> Hashtbl.replace t.migrations key Preparing
      | Preparing, (`Commit | `Abort) -> Hashtbl.replace t.migrations key Idle
      | Preparing, `Prepare ->
          violate t ~at ~monitor:"migration_order"
            (Printf.sprintf "vm %s: prepare while already preparing" key)
      | Idle, `Commit ->
          violate t ~at ~monitor:"migration_order"
            (Printf.sprintf "vm %s: commit without prepare" key)
      | Idle, `Abort ->
          violate t ~at ~monitor:"migration_order"
            (Printf.sprintf "vm %s: abort without prepare" key))
  | Trace.Cache_hit { vif; flow; tier; cached; fresh } ->
      (* The datapath-cache coherence invariant: a verdict served from
         any cache tier must equal a fresh full-policy evaluation taken
         at the same instant (the emitter computes [fresh] at hit
         time). *)
      if not (String.equal cached fresh) then
        violate t ~at ~monitor:"cache_coherence"
          (Format.asprintf "%s: %s hit on %a served %s but policy says %s" vif
             (match tier with `Exact -> "exact" | `Megaflow -> "megaflow")
             Netcore.Fkey.Pattern.pp flow cached fresh)
  | Trace.Cache_invalidate { vif; dropped; exact; megaflow; reason } ->
      if dropped < 0 || exact < 0 || megaflow < 0 then
        violate t ~at ~monitor:"cache_coherence"
          (Printf.sprintf "%s: negative count in invalidate (%s): %d/%d/%d" vif
             reason dropped exact megaflow)
  | Trace.Flow_progress { flow; sent; acked } -> (
      (* no_blackhole: a flow whose sender keeps producing while
         deliveries stall for longer than the window is blackholing —
         failover should have moved it to a working path by now. A flow
         with no new demand (sent unchanged) is merely idle. *)
      match Hashtbl.find_opt t.flows flow with
      | None ->
          Hashtbl.replace t.flows flow
            { fl_sent = sent; fl_acked = acked; progress_at = at }
      | Some st ->
          let made_progress = acked > st.fl_acked in
          let has_demand = sent > st.fl_sent && acked < sent in
          st.fl_sent <- sent;
          st.fl_acked <- acked;
          if made_progress || not has_demand then st.progress_at <- at
          else begin
            let stalled = Simtime.diff at st.progress_at in
            if Simtime.span_compare stalled no_blackhole_window > 0 then begin
              (* Restart the window so Warn mode reports a stuck flow
                 once per window rather than once per heartbeat. *)
              st.progress_at <- at;
              violate t ~at ~monitor:"no_blackhole"
                (Printf.sprintf
                   "flow %s: sent %d but acked stuck at %d for %.3fs" flow sent
                   acked (Simtime.span_to_sec stalled))
            end
          end)
  | Trace.Flow_promoted _ | Trace.Flow_demoted _ | Trace.Path_transition _
  | Trace.Epoch_tick _ | Trace.Ctrl_drop _ | Trace.Ctrl_retry _
  | Trace.Peer_state _ | Trace.Cache_miss _ | Trace.Lane_state _
  | Trace.Tcam_error _ ->
      ()

(* The sink-chain epoch at the last attach: a monitor is in the live
   tee chain exactly while tracing is enabled and no Trace.disable has
   run since. *)
let attached_epoch = ref (-1)

let attach t =
  attached_epoch := Trace.disable_count ();
  Trace.use_tee (fun now ev -> observe t now ev)

let attached () =
  Trace.enabled () && !attached_epoch = Trace.disable_count ()

(* Externally detected breaches (e.g. Obs.Slo's end-of-window check)
   funnel through the same recording, counting and strict-raise path as
   trace-driven monitors. *)
let breach t ~at ~monitor detail = violate t ~at ~monitor detail

let violations t = List.rev t.violations_rev
let total t = List.length t.violations_rev
let events_checked t = t.checked

let counts t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let report t =
  let b = Buffer.create 256 in
  if total t = 0 then
    Buffer.add_string b
      (Printf.sprintf "monitors: %d events checked, 0 violations\n" t.checked)
  else begin
    Buffer.add_string b
      (Printf.sprintf "monitors: %d events checked, %d violation(s)\n" t.checked
         (total t));
    List.iter
      (fun (name, n) ->
        Buffer.add_string b (Printf.sprintf "  %-18s %d\n" name n))
      (counts t);
    List.iter
      (fun v ->
        Buffer.add_string b ("  " ^ violation_to_string v ^ "\n");
        Buffer.add_string b (context_to_string v))
      (violations t)
  end;
  Buffer.contents b
