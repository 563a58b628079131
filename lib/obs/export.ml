module Simtime = Dcsim.Simtime

(* --- Chrome trace-event ("Perfetto") conversion.

   The JSONL trace is flat: paired Span_begin/Span_end events plus
   point events. Chrome's duration events (ph "B"/"E") must nest like a
   call stack per (pid,tid), which concurrent control-plane spans do
   not: two offloads overlap without either containing the other. The
   converter therefore runs offline in two passes — first it pairs
   every span and learns its extent, then it deals spans onto "lanes"
   (tids) so that each lane holds a properly nested (laminar) family:
   a span goes to the first lane whose innermost open span encloses it,
   or to a fresh lane. Lane 0 of every track is reserved for instant
   and counter events. *)

type chrome_event = {
  name : string;
  cat : string;
  ph : string;  (* "M" | "B" | "E" | "i" | "C" *)
  ts_us : float;
  pid : int;
  tid : int;
  scope : string option;  (* Some "t" on instants *)
  args : (string * Trace.json_value) list;
}

(* --- pass 1: span pairing and point-event collection --- *)

type span_rec = {
  sp_id : int;
  sp_parent : int;
  sp_kind : string;
  sp_name : string;
  sp_track : string;
  sp_begin : Simtime.t;
  mutable sp_end : Simtime.t;
  mutable sp_outcome : string;
  mutable sp_closed : bool;
}

(* Track of a point event: the component name before the first '.' of a
   channel name ("server0.uplink" -> "server0"), else the whole name. *)
let track_of_channel channel =
  match String.index_opt channel '.' with
  | Some i -> String.sub channel 0 i
  | None -> channel

let us_of t = float_of_int (Simtime.to_ns t) /. 1000.0

let convert events =
  let spans : (int, span_rec) Hashtbl.t = Hashtbl.create 64 in
  let span_order = ref [] in
  (* (ts, track, name, args) *)
  let instants = ref [] in
  (* (ts, track, counter name, value) *)
  let counters = ref [] in
  let tracks = ref [] in
  let track_seen = Hashtbl.create 8 in
  let note_track track =
    if not (Hashtbl.mem track_seen track) then begin
      Hashtbl.replace track_seen track (1 + Hashtbl.length track_seen);
      tracks := track :: !tracks
    end
  in
  let last_ts = ref Simtime.zero in
  let instant ts track name args =
    note_track track;
    instants := (ts, track, name, args) :: !instants
  in
  List.iter
    (fun (ts, ev) ->
      if Simtime.compare ts !last_ts > 0 then last_ts := ts;
      match (ev : Trace.event) with
      | Trace.Span_begin { span; parent; kind; name; track } ->
          if not (Hashtbl.mem spans span) then begin
            note_track track;
            let r =
              {
                sp_id = span;
                sp_parent = parent;
                sp_kind = kind;
                sp_name = name;
                sp_track = track;
                sp_begin = ts;
                sp_end = ts;
                sp_outcome = "unterminated";
                sp_closed = false;
              }
            in
            Hashtbl.replace spans span r;
            span_order := r :: !span_order
          end
      | Trace.Span_end { span; outcome } -> (
          match Hashtbl.find_opt spans span with
          | Some r when not r.sp_closed ->
              r.sp_end <- ts;
              r.sp_outcome <- outcome;
              r.sp_closed <- true
          | _ -> ())
      | Trace.Ctrl_drop { channel } ->
          instant ts (track_of_channel channel) ("drop " ^ channel) []
      | Trace.Ctrl_retry { server; seq; attempt; span } ->
          instant ts server
            (Printf.sprintf "retry seq=%d" seq)
            [ ("attempt", Trace.I attempt); ("span", Trace.I span) ]
      | Trace.Peer_state { server; alive } ->
          instant ts server (if alive then "peer alive" else "peer dead") []
      | Trace.Migration_stage { vm_ip; stage } ->
          instant ts "tor"
            (Printf.sprintf "migration %s %s"
               (match stage with
               | `Prepare -> "prepare"
               | `Commit -> "commit"
               | `Abort -> "abort")
               (Netcore.Ipv4.to_string vm_ip))
            []
      | Trace.Flow_promoted { pattern; server; _ } ->
          instant ts "tor"
            ("promote " ^ Trace.pattern_to_string pattern)
            [ ("server", Trace.S server) ]
      | Trace.Flow_demoted { pattern; reason; _ } ->
          instant ts "tor"
            ("demote " ^ Trace.pattern_to_string pattern)
            [ ("reason", Trace.S reason) ]
      | Trace.Tcam_install { used; _ } | Trace.Tcam_evict { used; _ } ->
          note_track "tor";
          counters := (ts, "tor", "tcam.used", used) :: !counters
      | Trace.Lane_state { lane; up } ->
          instant ts "tor"
            (Printf.sprintf "lane %s %s" lane (if up then "up" else "down"))
            []
      | Trace.Tcam_error { kind; entries; _ } ->
          instant ts "tor"
            ("tcam error " ^ kind)
            [ ("entries", Trace.I entries) ]
      | Trace.Cache_invalidate { vif; reason; dropped; exact; megaflow } ->
          instant ts "vswitch"
            (Printf.sprintf "cache invalidate %s (%s)" vif reason)
            [
              ("dropped", Trace.I dropped);
              ("exact", Trace.I exact);
              ("megaflow", Trace.I megaflow);
            ]
      (* Hit/miss events are per-lookup volume; exporting each would
         swamp the timeline, so they are deliberately not converted.
         Likewise flow-progress heartbeats. *)
      | Trace.Cache_hit _ | Trace.Cache_miss _
      | Trace.Fps_split _ | Trace.Path_transition _ | Trace.Rule_pushed _
      | Trace.Epoch_tick _ | Trace.Flow_progress _ ->
          ())
    events;
  let final_ts = !last_ts in
  (* Unterminated spans are closed synthetically at the trace's end so
     every B has its E. *)
  Hashtbl.iter
    (fun _ r -> if not r.sp_closed then r.sp_end <- final_ts)
    spans;
  let pid_of track =
    match Hashtbl.find_opt track_seen track with Some p -> p | None -> 0
  in
  (* --- pass 2: lane allocation per track --- *)
  (* Sort outer-before-inner so the stack simulation below sees a
     parent before any span it encloses. *)
  let all_spans =
    List.sort
      (fun a b ->
        match String.compare a.sp_track b.sp_track with
        | 0 -> (
            match Simtime.compare a.sp_begin b.sp_begin with
            | 0 -> (
                match Simtime.compare b.sp_end a.sp_end with
                | 0 -> Stdlib.compare a.sp_id b.sp_id
                | c -> c)
            | c -> c)
        | c -> c)
      (List.rev !span_order)
  in
  let out = ref [] in
  let push e = out := e :: !out in
  (* Per-track lanes: each lane is (tid, stack of currently open spans,
     every span ever dealt to it in begin order). A span fits a lane
     when the lane's innermost open span encloses it, so each lane's
     spans form a laminar family. *)
  let lanes :
      (string, (int * span_rec list ref * span_rec list ref) list ref) Hashtbl.t
      =
    Hashtbl.create 8
  in
  let max_lane : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let track_lanes =
        match Hashtbl.find_opt lanes r.sp_track with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace lanes r.sp_track l;
            l
      in
      (* Retire spans that ended at or before this begin, then look for
         a lane whose innermost open span encloses this one. *)
      let fits stack =
        stack :=
          List.filter
            (fun open_sp -> Simtime.compare open_sp.sp_end r.sp_begin > 0)
            !stack;
        match !stack with
        | [] -> true
        | innermost :: _ -> Simtime.compare r.sp_end innermost.sp_end <= 0
      in
      let rec place = function
        | [] ->
            let tid =
              1 + Option.value (Hashtbl.find_opt max_lane r.sp_track) ~default:0
            in
            Hashtbl.replace max_lane r.sp_track tid;
            track_lanes := !track_lanes @ [ (tid, ref [ r ], ref [ r ]) ]
        | (_, stack, members) :: rest ->
            if fits stack then begin
              stack := r :: !stack;
              members := r :: !members
            end
            else place rest
      in
      place !track_lanes)
    all_spans;
  (* Emit each lane with a stack sweep so that B/E order is correct even
     at shared timestamps (inner E strictly before outer E). The stable
     sort below only interleaves lanes and preserves this order. *)
  let emit_lane ~track ~tid members =
    let pid = pid_of track in
    let emit_b r =
      push
        {
          name = r.sp_name;
          cat = r.sp_kind;
          ph = "B";
          ts_us = us_of r.sp_begin;
          pid;
          tid;
          scope = None;
          args = [ ("span", Trace.I r.sp_id); ("parent", Trace.I r.sp_parent) ];
        }
    in
    let emit_e r =
      push
        {
          name = r.sp_name;
          cat = r.sp_kind;
          ph = "E";
          ts_us = us_of r.sp_end;
          pid;
          tid;
          scope = None;
          args = [ ("outcome", Trace.S r.sp_outcome) ];
        }
    in
    let close_until stack boundary =
      let rec go = function
        | open_sp :: rest
          when (match boundary with
               | Some b -> Simtime.compare open_sp.sp_end b <= 0
               | None -> true) ->
            emit_e open_sp;
            go rest
        | rest -> rest
      in
      go stack
    in
    let stack =
      List.fold_left
        (fun stack r ->
          let stack = close_until stack (Some r.sp_begin) in
          emit_b r;
          r :: stack)
        [] (List.rev !members)
    in
    ignore (close_until stack None)
  in
  Hashtbl.iter
    (fun track track_lanes ->
      List.iter
        (fun (tid, _, members) -> emit_lane ~track ~tid members)
        !track_lanes)
    lanes;
  List.iter
    (fun (ts, track, name, args) ->
      push
        {
          name;
          cat = "event";
          ph = "i";
          ts_us = us_of ts;
          pid = pid_of track;
          tid = 0;
          scope = Some "t";
          args;
        })
    (List.rev !instants);
  List.iter
    (fun (ts, track, cname, v) ->
      push
        {
          name = cname;
          cat = "counter";
          ph = "C";
          ts_us = us_of ts;
          pid = pid_of track;
          tid = 0;
          scope = None;
          args = [ ("used", Trace.I v) ];
        })
    (List.rev !counters);
  (* Metadata rows name each track's process and lane 0. *)
  let meta =
    List.concat_map
      (fun track ->
        let pid = pid_of track in
        [
          {
            name = "process_name";
            cat = "__metadata";
            ph = "M";
            ts_us = 0.0;
            pid;
            tid = 0;
            scope = None;
            args = [ ("name", Trace.S track) ];
          };
          {
            name = "thread_name";
            cat = "__metadata";
            ph = "M";
            ts_us = 0.0;
            pid;
            tid = 0;
            scope = None;
            args = [ ("name", Trace.S "events") ];
          };
        ])
      (List.rev !tracks)
  in
  (* A stable sort by timestamp keeps each lane's B/E order (already
     correct, nested spans emitted outer-B ... inner-B inner-E ...
     outer-E relative to equal timestamps) intact. *)
  let body =
    List.stable_sort
      (fun a b -> Float.compare a.ts_us b.ts_us)
      (List.rev !out)
  in
  meta @ body

(* --- serialisation --- *)

let add_string b s =
  Buffer.add_char b '"';
  Trace.add_escaped b s;
  Buffer.add_char b '"'

let event_to_json e =
  let b = Buffer.create 128 in
  Buffer.add_string b "{\"name\":";
  add_string b e.name;
  Buffer.add_string b ",\"cat\":";
  add_string b e.cat;
  Printf.bprintf b ",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d" e.ph e.ts_us
    e.pid e.tid;
  Option.iter
    (fun s ->
      Buffer.add_string b ",\"s\":";
      add_string b s)
    e.scope;
  (match e.args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_string b k;
          Buffer.add_char b ':';
          match v with
          | Trace.S s -> add_string b s
          | Trace.I i -> Buffer.add_string b (string_of_int i)
          | Trace.F f ->
              Buffer.add_string b
                (if Float.is_integer f && Float.abs f < 1e15 then
                   Printf.sprintf "%.1f" f
                 else Printf.sprintf "%.17g" f))
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}';
  Buffer.contents b

let write oc events =
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then output_string oc ",\n";
      output_string oc (event_to_json e))
    events;
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"

(* --- validation ---

   Checks the converter's own output contract: timestamps never go
   backwards along the array, and per (pid,tid) the duration events
   obey stack discipline — every E closes the most recent open B of
   that lane (by name) and no lane ends with an open B. *)

type lite = { l_ph : string; l_ts : float; l_pid : int; l_tid : int; l_name : string }

let validate_lite events =
  let stacks : (int * int, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let rec go prev_ts n = function
    | [] ->
        let leftover = ref None in
        Hashtbl.iter
          (fun (pid, tid) stack ->
            match !stack with
            | [] -> ()
            | name :: _ ->
                if !leftover = None then
                  leftover :=
                    Some
                      (Printf.sprintf "unclosed B %S on pid %d tid %d" name pid
                         tid))
          stacks;
        (match !leftover with None -> Ok n | Some msg -> Error msg)
    | e :: rest ->
        if e.l_ph <> "M" && e.l_ts < prev_ts then
          Error
            (Printf.sprintf "timestamp regression at event %d: %.3f < %.3f" n
               e.l_ts prev_ts)
        else begin
          let key = (e.l_pid, e.l_tid) in
          let stack =
            match Hashtbl.find_opt stacks key with
            | Some s -> s
            | None ->
                let s = ref [] in
                Hashtbl.replace stacks key s;
                s
          in
          let next_ts = if e.l_ph = "M" then prev_ts else e.l_ts in
          match e.l_ph with
          | "B" ->
              stack := e.l_name :: !stack;
              go next_ts (n + 1) rest
          | "E" -> (
              match !stack with
              | [] ->
                  Error
                    (Printf.sprintf "E %S with no open B on pid %d tid %d"
                       e.l_name e.l_pid e.l_tid)
              | top :: others ->
                  if String.equal top e.l_name then begin
                    stack := others;
                    go next_ts (n + 1) rest
                  end
                  else
                    Error
                      (Printf.sprintf
                         "E %S does not close innermost B %S on pid %d tid %d"
                         e.l_name top e.l_pid e.l_tid))
          | _ -> go next_ts (n + 1) rest
        end
  in
  go neg_infinity 0 events

let lite_of_event e =
  { l_ph = e.ph; l_ts = e.ts_us; l_pid = e.pid; l_tid = e.tid; l_name = e.name }

let validate events = validate_lite (List.map lite_of_event events)

(* Re-parse one serialised event line. [Trace.parse_flat] handles only
   flat objects, so the nested ["args"] object (always last, see
   [event_to_json]) is cut off first. *)
let lite_of_line line =
  let line = String.trim line in
  let line =
    if String.length line > 0 && line.[String.length line - 1] = ',' then
      String.sub line 0 (String.length line - 1)
    else line
  in
  if String.length line = 0 || line.[0] <> '{' then None
  else
    let flat =
      let marker = ",\"args\":{" in
      let mlen = String.length marker in
      let rec find i =
        if i + mlen > String.length line then None
        else if String.sub line i mlen = marker then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i -> String.sub line 0 i ^ "}"
      | None -> line
    in
    match Trace.parse_flat flat with
    | None -> None
    | Some fields ->
        let str k =
          match List.assoc_opt k fields with Some (Trace.S s) -> Some s | _ -> None
        in
        let int k =
          match List.assoc_opt k fields with Some (Trace.I i) -> Some i | _ -> None
        in
        let num k =
          match List.assoc_opt k fields with
          | Some (Trace.F f) -> Some f
          | Some (Trace.I i) -> Some (float_of_int i)
          | _ -> None
        in
        (match (str "ph", num "ts", int "pid", int "tid", str "name") with
        | Some ph, Some ts, Some pid, Some tid, Some name ->
            Some { l_ph = ph; l_ts = ts; l_pid = pid; l_tid = tid; l_name = name }
        | _ -> None)

let validate_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let events = ref [] in
      let malformed = ref 0 in
      (try
         while true do
           let line = input_line ic in
           let t = String.trim line in
           if
             String.length t > 0
             && t.[0] = '{'
             && not (String.length t >= 14 && String.sub t 0 14 = "{\"traceEvents\"")
           then
             match lite_of_line t with
             | Some l -> events := l :: !events
             | None -> incr malformed
         done
       with End_of_file -> ());
      if !malformed > 0 then
        Error (Printf.sprintf "%d unparseable event line(s)" !malformed)
      else validate_lite (List.rev !events))

(* --- whole-file conversion --- *)

type stats = { events_in : int; skipped : int; events_out : int }

let convert_file_ic ic ~output =
  let events, skipped =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let events = ref [] in
        let skipped = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then
               match Trace.of_jsonl line with
               | Some ev -> events := ev :: !events
               | None -> incr skipped
           done
         with End_of_file -> ());
        (List.rev !events, !skipped))
  in
  let chrome = convert events in
  let oc = open_out output in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> write oc chrome);
  match validate chrome with
  | Error e -> Error ("internal: exported trace fails validation: " ^ e)
  | Ok _ -> (
      (* Round-trip: re-parse the file just written and validate that
         too, so a serialisation bug cannot ship a broken export. *)
      match validate_file output with
      | Error e -> Error ("internal: written file fails re-validation: " ^ e)
      | Ok _ ->
          Ok
            {
              events_in = List.length events;
              skipped;
              events_out = List.length chrome;
            })

let convert_file ~input ~output =
  match open_in input with
  | exception Sys_error e -> Error e
  | ic -> convert_file_ic ic ~output
