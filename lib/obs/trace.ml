module Simtime = Dcsim.Simtime
module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4
module Tenant = Netcore.Tenant

type direction = Tx | Rx
type path = Software | Express

type event =
  | Flow_promoted of {
      pattern : Fkey.Pattern.t;
      tenant : Tenant.id;
      vm_ip : Ipv4.t;
      server : string;
      score : float;
      tcam_entries : int;
    }
  | Flow_demoted of {
      pattern : Fkey.Pattern.t;
      tenant : Tenant.id;
      vm_ip : Ipv4.t;
      server : string;
      reason : string;
    }
  | Tcam_install of {
      tenant : Tenant.id;
      entries : int;
      used : int;
      capacity : int;
    }
  | Tcam_evict of {
      tenant : Tenant.id;
      entries : int;
      used : int;
      capacity : int;
    }
  | Fps_split of {
      vm_ip : Ipv4.t;
      direction : direction;
      soft_bps : float;
      hard_bps : float;
      total_bps : float;
      overflow_bps : float;
    }
  | Path_transition of { vm_ip : Ipv4.t; pattern : Fkey.Pattern.t; path : path }
  | Rule_pushed of {
      server : string;
      pattern : Fkey.Pattern.t;
      push : [ `Offload | `Demote ];
      seq : int;
    }
  | Epoch_tick of { me : string; epoch : int; interval : int }
  | Ctrl_drop of { channel : string }
  | Ctrl_retry of { server : string; seq : int; attempt : int; span : int }
  | Peer_state of { server : string; alive : bool }
  | Lane_state of { lane : string; up : bool }
  | Tcam_error of { tenant : Tenant.id; kind : string; entries : int }
  | Flow_progress of { flow : string; sent : int; acked : int }
  | Migration_stage of {
      vm_ip : Ipv4.t;
      stage : [ `Prepare | `Commit | `Abort ];
    }
  | Span_begin of {
      span : int;
      parent : int;
      kind : string;
      name : string;
      track : string;
    }
  | Span_end of { span : int; outcome : string }
  | Cache_hit of {
      vif : string;
      flow : Fkey.Pattern.t;
      tier : [ `Exact | `Megaflow ];
      cached : string;
      fresh : string;
    }
  | Cache_miss of { vif : string; flow : Fkey.Pattern.t }
  | Cache_invalidate of {
      vif : string;
      reason : string;
      dropped : int;
      exact : int;
      megaflow : int;
    }

(* --- Pattern codec --- *)

let proto_to_token = function
  | Fkey.Tcp -> "tcp"
  | Fkey.Udp -> "udp"
  | Fkey.Icmp -> "icmp"
  | Fkey.Other n -> "p" ^ string_of_int n

let proto_of_token = function
  | "tcp" -> Some Fkey.Tcp
  | "udp" -> Some Fkey.Udp
  | "icmp" -> Some Fkey.Icmp
  | s when String.length s > 1 && s.[0] = 'p' -> (
      match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
      | Some n -> Some (Fkey.Other n)
      | None -> None)
  | _ -> None

let field f = function None -> "*" | Some v -> f v

let pattern_to_string (p : Fkey.Pattern.t) =
  String.concat "/"
    [
      field Ipv4.to_string p.Fkey.Pattern.src_ip;
      field Ipv4.to_string p.dst_ip;
      field string_of_int p.src_port;
      field string_of_int p.dst_port;
      field proto_to_token p.proto;
      field (fun t -> string_of_int (Tenant.to_int t)) p.tenant;
    ]

let unfield f = function "*" -> Some None | s -> Option.map Option.some (f s)

let ip_of_string_opt s =
  match Ipv4.of_string s with ip -> Some ip | exception _ -> None

let pattern_of_string s =
  match String.split_on_char '/' s with
  | [ si; di; sp; dp; pr; te ] -> (
      let ( let* ) = Option.bind in
      let* src_ip = unfield ip_of_string_opt si in
      let* dst_ip = unfield ip_of_string_opt di in
      let* src_port = unfield int_of_string_opt sp in
      let* dst_port = unfield int_of_string_opt dp in
      let* proto = unfield proto_of_token pr in
      let* tenant =
        unfield
          (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 0 -> Some (Tenant.of_int n)
            | _ -> None)
          te
      in
      Some
        { Fkey.Pattern.src_ip; dst_ip; src_port; dst_port; proto; tenant })
  | _ -> None

(* --- JSONL encoding --- *)

(* All field writers append straight into the caller's buffer: the only
   per-field allocations left are the payload strings themselves
   (string_of_int, Ipv4.to_string) and the float formatter — no
   Printf.sprintf per key, no intermediate escaped copy. *)

let add_escaped b s =
  if String.for_all (fun c -> c <> '"' && c <> '\\' && c >= ' ') s then
    Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when c < ' ' ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

(* Keys are literal identifiers, so quoting them needs no escaping. *)
let key b k =
  Buffer.add_char b ',';
  Buffer.add_char b '"';
  Buffer.add_string b k;
  Buffer.add_string b "\":"

let kv_s b k v =
  key b k;
  Buffer.add_char b '"';
  add_escaped b v;
  Buffer.add_char b '"'

let kv_i b k v =
  key b k;
  Buffer.add_string b (string_of_int v)

let kv_f b k v =
  (* %.17g round-trips every finite float exactly. *)
  key b k;
  Buffer.add_string b (Printf.sprintf "%.17g" v)

(* The pattern codec's alphabet (dotted quads, ints, '*', '/', "tcp",
   "p<n>") never needs JSON escaping, so it can stream field by field. *)
let add_pattern b (p : Fkey.Pattern.t) =
  let fld f v =
    (match v with None -> Buffer.add_char b '*' | Some x -> f x)
  in
  let ip v = Buffer.add_string b (Ipv4.to_string v) in
  let int v = Buffer.add_string b (string_of_int v) in
  fld ip p.Fkey.Pattern.src_ip;
  Buffer.add_char b '/';
  fld ip p.dst_ip;
  Buffer.add_char b '/';
  fld int p.src_port;
  Buffer.add_char b '/';
  fld int p.dst_port;
  Buffer.add_char b '/';
  fld (fun pr -> Buffer.add_string b (proto_to_token pr)) p.proto;
  Buffer.add_char b '/';
  fld (fun t -> int (Tenant.to_int t)) p.tenant

let kv_pattern b k p =
  key b k;
  Buffer.add_char b '"';
  add_pattern b p;
  Buffer.add_char b '"'

let kv_tenant b k t = kv_i b k (Tenant.to_int t)
let kv_ip b k ip = kv_s b k (Ipv4.to_string ip)

let encode_into b now event =
  Buffer.add_string b "{\"t_ns\":";
  Buffer.add_string b (string_of_int (Simtime.to_ns now));
  Buffer.add_string b ",\"t\":";
  Buffer.add_string b (Printf.sprintf "%.9f" (Simtime.to_sec now));
  let ev name = kv_s b "ev" name in
  (match event with
  | Flow_promoted { pattern; tenant; vm_ip; server; score; tcam_entries } ->
      ev "flow_promoted";
      kv_pattern b "pattern" pattern;
      kv_tenant b "tenant" tenant;
      kv_ip b "vm_ip" vm_ip;
      kv_s b "server" server;
      kv_f b "score" score;
      kv_i b "tcam_entries" tcam_entries
  | Flow_demoted { pattern; tenant; vm_ip; server; reason } ->
      ev "flow_demoted";
      kv_pattern b "pattern" pattern;
      kv_tenant b "tenant" tenant;
      kv_ip b "vm_ip" vm_ip;
      kv_s b "server" server;
      kv_s b "reason" reason
  | Tcam_install { tenant; entries; used; capacity } ->
      ev "tcam_install";
      kv_tenant b "tenant" tenant;
      kv_i b "entries" entries;
      kv_i b "used" used;
      kv_i b "capacity" capacity
  | Tcam_evict { tenant; entries; used; capacity } ->
      ev "tcam_evict";
      kv_tenant b "tenant" tenant;
      kv_i b "entries" entries;
      kv_i b "used" used;
      kv_i b "capacity" capacity
  | Fps_split { vm_ip; direction; soft_bps; hard_bps; total_bps; overflow_bps } ->
      ev "fps_split";
      kv_ip b "vm_ip" vm_ip;
      kv_s b "dir" (match direction with Tx -> "tx" | Rx -> "rx");
      kv_f b "soft_bps" soft_bps;
      kv_f b "hard_bps" hard_bps;
      kv_f b "total_bps" total_bps;
      kv_f b "overflow_bps" overflow_bps
  | Path_transition { vm_ip; pattern; path } ->
      ev "path_transition";
      kv_ip b "vm_ip" vm_ip;
      kv_pattern b "pattern" pattern;
      kv_s b "path" (match path with Software -> "software" | Express -> "express")
  | Rule_pushed { server; pattern; push; seq } ->
      ev "rule_pushed";
      kv_s b "server" server;
      kv_pattern b "pattern" pattern;
      kv_s b "push" (match push with `Offload -> "offload" | `Demote -> "demote");
      kv_i b "seq" seq
  | Epoch_tick { me; epoch; interval } ->
      ev "epoch_tick";
      kv_s b "me" me;
      kv_i b "epoch" epoch;
      kv_i b "interval" interval
  | Ctrl_drop { channel } ->
      ev "ctrl_drop";
      kv_s b "channel" channel
  | Ctrl_retry { server; seq; attempt; span } ->
      ev "ctrl_retry";
      kv_s b "server" server;
      kv_i b "seq" seq;
      kv_i b "attempt" attempt;
      kv_i b "span" span
  | Peer_state { server; alive } ->
      ev "peer_state";
      kv_s b "server" server;
      kv_s b "state" (if alive then "alive" else "dead")
  | Lane_state { lane; up } ->
      ev "lane_state";
      kv_s b "lane" lane;
      kv_s b "state" (if up then "up" else "down")
  | Tcam_error { tenant; kind; entries } ->
      ev "tcam_error";
      kv_tenant b "tenant" tenant;
      kv_s b "kind" kind;
      kv_i b "entries" entries
  | Flow_progress { flow; sent; acked } ->
      ev "flow_progress";
      kv_s b "flow" flow;
      kv_i b "sent" sent;
      kv_i b "acked" acked
  | Migration_stage { vm_ip; stage } ->
      ev "migration";
      kv_ip b "vm_ip" vm_ip;
      kv_s b "stage"
        (match stage with
        | `Prepare -> "prepare"
        | `Commit -> "commit"
        | `Abort -> "abort")
  | Span_begin { span; parent; kind; name; track } ->
      ev "span_begin";
      kv_i b "span" span;
      kv_i b "parent" parent;
      kv_s b "kind" kind;
      kv_s b "name" name;
      kv_s b "track" track
  | Span_end { span; outcome } ->
      ev "span_end";
      kv_i b "span" span;
      kv_s b "outcome" outcome
  | Cache_hit { vif; flow; tier; cached; fresh } ->
      ev "cache_hit";
      kv_s b "vif" vif;
      kv_pattern b "flow" flow;
      kv_s b "tier" (match tier with `Exact -> "exact" | `Megaflow -> "megaflow");
      kv_s b "cached" cached;
      kv_s b "fresh" fresh
  | Cache_miss { vif; flow } ->
      ev "cache_miss";
      kv_s b "vif" vif;
      kv_pattern b "flow" flow
  | Cache_invalidate { vif; reason; dropped; exact; megaflow } ->
      ev "cache_invalidate";
      kv_s b "vif" vif;
      kv_s b "reason" reason;
      kv_i b "dropped" dropped;
      kv_i b "exact" exact;
      kv_i b "megaflow" megaflow);
  Buffer.add_char b '}'

let to_jsonl now event =
  let b = Buffer.create 160 in
  encode_into b now event;
  Buffer.contents b

(* --- Flat JSON parsing (just enough for our own encoder's output) --- *)

type json_value = S of string | I of int | F of float

let parse_flat line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && (match line.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then begin incr pos; true end else false
  in
  let parse_string () =
    if not (expect '"') then None
    else begin
      let b = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then None
        else
          match line.[!pos] with
          | '"' -> incr pos; Some (Buffer.contents b)
          | '\\' when !pos + 1 < n ->
              (match line.[!pos + 1] with
              | '"' -> Buffer.add_char b '"'; pos := !pos + 2
              | '\\' -> Buffer.add_char b '\\'; pos := !pos + 2
              | 'u' when !pos + 5 < n ->
                  (match int_of_string_opt ("0x" ^ String.sub line (!pos + 2) 4) with
                  | Some code when code < 128 -> Buffer.add_char b (Char.chr code)
                  | _ -> Buffer.add_char b '?');
                  pos := !pos + 6
              | c -> Buffer.add_char b c; pos := !pos + 2);
              loop ()
          | c -> Buffer.add_char b c; incr pos; loop ()
      in
      loop ()
    end
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    let num_char c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && num_char line.[!pos] do incr pos done;
    if !pos = start then None
    else begin
      let s = String.sub line start (!pos - start) in
      match int_of_string_opt s with
      | Some i -> Some (I i)
      | None -> Option.map (fun f -> F f) (float_of_string_opt s)
    end
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Option.map (fun s -> S s) (parse_string ())
    | _ -> parse_number ()
  in
  (* One object, then only whitespace: no trailing comma, no repeated
     key, nothing after the closing brace (a torn or merged write). *)
  let rec pairs acc =
    match parse_string () with
    | Some key when not (List.mem_assoc key acc) -> (
        if not (expect ':') then None
        else
          match parse_value () with
          | None -> None
          | Some v ->
              let acc = (key, v) :: acc in
              if expect ',' then pairs acc
              else if expect '}' then Some (List.rev acc)
              else None)
    | Some _ | None -> None
  in
  if not (expect '{') then None
  else
    let fields = if expect '}' then Some [] else pairs [] in
    skip_ws ();
    if !pos = n then fields else None

let of_jsonl line =
  let ( let* ) = Option.bind in
  let* fields = parse_flat line in
  let str k = match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None in
  let int k = match List.assoc_opt k fields with Some (I i) -> Some i | _ -> None in
  let flt k =
    match List.assoc_opt k fields with
    | Some (F f) -> Some f
    | Some (I i) -> Some (float_of_int i)
    | _ -> None
  in
  let pat k = Option.bind (str k) pattern_of_string in
  let ip k = Option.bind (str k) ip_of_string_opt in
  let tenant k =
    Option.bind (int k) (fun n -> if n >= 0 then Some (Tenant.of_int n) else None)
  in
  let* t_ns = int "t_ns" in
  let now = Simtime.of_ns t_ns in
  let* ev = str "ev" in
  let* event =
    match ev with
    | "flow_promoted" ->
        let* pattern = pat "pattern" in
        let* tenant = tenant "tenant" in
        let* vm_ip = ip "vm_ip" in
        let* server = str "server" in
        let* score = flt "score" in
        let* tcam_entries = int "tcam_entries" in
        Some (Flow_promoted { pattern; tenant; vm_ip; server; score; tcam_entries })
    | "flow_demoted" ->
        let* pattern = pat "pattern" in
        let* tenant = tenant "tenant" in
        let* vm_ip = ip "vm_ip" in
        let* server = str "server" in
        let* reason = str "reason" in
        Some (Flow_demoted { pattern; tenant; vm_ip; server; reason })
    | "tcam_install" | "tcam_evict" ->
        let* tenant = tenant "tenant" in
        let* entries = int "entries" in
        let* used = int "used" in
        let* capacity = int "capacity" in
        Some
          (if ev = "tcam_install" then
             Tcam_install { tenant; entries; used; capacity }
           else Tcam_evict { tenant; entries; used; capacity })
    | "fps_split" ->
        let* vm_ip = ip "vm_ip" in
        let* dir = str "dir" in
        let* direction =
          match dir with "tx" -> Some Tx | "rx" -> Some Rx | _ -> None
        in
        let* soft_bps = flt "soft_bps" in
        let* hard_bps = flt "hard_bps" in
        let* total_bps = flt "total_bps" in
        let* overflow_bps = flt "overflow_bps" in
        Some
          (Fps_split
             { vm_ip; direction; soft_bps; hard_bps; total_bps; overflow_bps })
    | "path_transition" ->
        let* vm_ip = ip "vm_ip" in
        let* pattern = pat "pattern" in
        let* path =
          match str "path" with
          | Some "software" -> Some Software
          | Some "express" -> Some Express
          | _ -> None
        in
        Some (Path_transition { vm_ip; pattern; path })
    | "rule_pushed" ->
        let* server = str "server" in
        let* pattern = pat "pattern" in
        let* push =
          match str "push" with
          | Some "offload" -> Some `Offload
          | Some "demote" -> Some `Demote
          | _ -> None
        in
        let* seq = int "seq" in
        Some (Rule_pushed { server; pattern; push; seq })
    | "epoch_tick" ->
        let* me = str "me" in
        let* epoch = int "epoch" in
        let* interval = int "interval" in
        Some (Epoch_tick { me; epoch; interval })
    | "ctrl_drop" ->
        let* channel = str "channel" in
        Some (Ctrl_drop { channel })
    | "ctrl_retry" ->
        let* server = str "server" in
        let* seq = int "seq" in
        let* attempt = int "attempt" in
        let* span = int "span" in
        Some (Ctrl_retry { server; seq; attempt; span })
    | "peer_state" ->
        let* server = str "server" in
        let* alive =
          match str "state" with
          | Some "alive" -> Some true
          | Some "dead" -> Some false
          | _ -> None
        in
        Some (Peer_state { server; alive })
    | "lane_state" ->
        let* lane = str "lane" in
        let* up =
          match str "state" with
          | Some "up" -> Some true
          | Some "down" -> Some false
          | _ -> None
        in
        Some (Lane_state { lane; up })
    | "tcam_error" ->
        let* tenant = tenant "tenant" in
        let* kind = str "kind" in
        let* entries = int "entries" in
        Some (Tcam_error { tenant; kind; entries })
    | "flow_progress" ->
        let* flow = str "flow" in
        let* sent = int "sent" in
        let* acked = int "acked" in
        Some (Flow_progress { flow; sent; acked })
    | "migration" ->
        let* vm_ip = ip "vm_ip" in
        let* stage =
          match str "stage" with
          | Some "prepare" -> Some `Prepare
          | Some "commit" -> Some `Commit
          | Some "abort" -> Some `Abort
          | _ -> None
        in
        Some (Migration_stage { vm_ip; stage })
    | "span_begin" ->
        let* span = int "span" in
        let* parent = int "parent" in
        let* kind = str "kind" in
        let* name = str "name" in
        let* track = str "track" in
        Some (Span_begin { span; parent; kind; name; track })
    | "span_end" ->
        let* span = int "span" in
        let* outcome = str "outcome" in
        Some (Span_end { span; outcome })
    | "cache_hit" ->
        let* vif = str "vif" in
        let* flow = pat "flow" in
        let* tier =
          match str "tier" with
          | Some "exact" -> Some `Exact
          | Some "megaflow" -> Some `Megaflow
          | _ -> None
        in
        let* cached = str "cached" in
        let* fresh = str "fresh" in
        Some (Cache_hit { vif; flow; tier; cached; fresh })
    | "cache_miss" ->
        let* vif = str "vif" in
        let* flow = pat "flow" in
        Some (Cache_miss { vif; flow })
    | "cache_invalidate" ->
        let* vif = str "vif" in
        let* reason = str "reason" in
        let* dropped = int "dropped" in
        let* exact = int "exact" in
        let* megaflow = int "megaflow" in
        Some (Cache_invalidate { vif; reason; dropped; exact; megaflow })
    | _ -> None
  in
  Some (now, event)

(* --- Sink --- *)

type sink =
  | Off
  | Jsonl of out_channel
  | Callback of (Simtime.t -> event -> unit)

let sink = ref Off
let enabled () = match !sink with Off -> false | Jsonl _ | Callback _ -> true

(* One scratch buffer shared by the JSONL sink (there is at most one
   sink installed at a time): encoding an event reuses it instead of
   allocating a fresh Buffer per event, so a traced run's per-event
   garbage is just the payload strings the field writers build. *)
let jsonl_scratch = Buffer.create 256

let emit_to sink now event =
  match sink with
  | Off -> ()
  | Jsonl oc ->
      Buffer.clear jsonl_scratch;
      encode_into jsonl_scratch now event;
      Buffer.add_char jsonl_scratch '\n';
      Buffer.output_buffer oc jsonl_scratch
  | Callback f -> f now event

let emit ~now event = match !sink with Off -> () | s -> emit_to s now event

let use_jsonl oc = sink := Jsonl oc
let use_callback f = sink := Callback f

let use_tee f =
  let prev = !sink in
  sink :=
    Callback
      (fun now event ->
        f now event;
        emit_to prev now event)

let disables = ref 0
let disable_count () = !disables

let disable () =
  (match !sink with Jsonl oc -> flush oc | Off | Callback _ -> ());
  incr disables;
  sink := Off
