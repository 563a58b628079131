module Fkey = Netcore.Fkey
module Mask = Fkey.Pattern.Mask

type entry = { id : int; compiled : Rules.Rule_compiler.compiled }

(* One table of the tuple-space index: the [size] live entries whose
   [acl_pattern] has this mask, in a power-of-two array of buckets
   indexed by [Mask.hash_pattern]. *)
type space = { mask : Mask.t; mutable buckets : entry list array; mutable size : int }

type t = {
  engine : Dcsim.Engine.t;  (* stamps the TCAM trace events *)
  tenant : Netcore.Tenant.id;
  tcam : Tcam.t;
  mutable entries : entry list;  (* newest first; [evict_random] draws by index *)
  mutable spaces : space list;  (* one per distinct mask in [entries] *)
  tunnels : Rules.Tunnel_rule.Map.t;
  mutable tunnel_refcounts : (int, int) Hashtbl.t;  (* vm_ip -> refs *)
  mutable next_id : int;
  (* Fault hook: consulted before each install; returning true makes
     the install fail with [`Install_fault] without touching the TCAM.
     [None] (the default) is the reliable path. *)
  mutable install_fault : (unit -> bool) option;
}

type handle = int

let m_installs = Obs.Metrics.counter "tor.vrf.installs"
let m_removes = Obs.Metrics.counter "tor.vrf.removes"
let m_install_entries = Obs.Metrics.summary "tor.vrf.install_entries"
let m_install_faults = Obs.Metrics.counter "tor.tcam.install_faults"
let m_soft_errors = Obs.Metrics.counter "tor.tcam.soft_errors"

let create ~engine ~tenant ~tcam =
  {
    engine;
    tenant;
    tcam;
    entries = [];
    spaces = [];
    tunnels = Rules.Tunnel_rule.Map.create ();
    tunnel_refcounts = Hashtbl.create 16;
    next_id = 0;
    install_fault = None;
  }

let tenant t = t.tenant
let set_install_fault t hook = t.install_fault <- hook

let ip_key (ip : Netcore.Ipv4.t) = (ip :> int)

let mask_of e = Mask.of_pattern e.compiled.Rules.Rule_compiler.acl_pattern

let space_of t e =
  let mask = mask_of e in
  match List.find_opt (fun s -> Mask.equal s.mask mask) t.spaces with
  | Some s -> s
  | None ->
      let s = { mask; buckets = Array.make 1 []; size = 0 } in
      t.spaces <- s :: t.spaces;
      s

let bucket s e =
  Mask.hash_pattern e.compiled.Rules.Rule_compiler.acl_pattern
  land (Array.length s.buckets - 1)

let push s e =
  let b = bucket s e in
  s.buckets.(b) <- e :: s.buckets.(b)

(* [e] is already in [t.entries]. At a load factor above 1 the space
   doubles and is refilled from [t.entries]. *)
let index_add t e =
  let s = space_of t e in
  s.size <- s.size + 1;
  if s.size <= Array.length s.buckets then push s e
  else begin
    s.buckets <- Array.make (2 * Array.length s.buckets) [];
    List.iter (fun x -> if Mask.equal (mask_of x) s.mask then push s x) t.entries
  end

(* A mask leaves the index with its last entry. *)
let index_remove t e =
  let s = space_of t e in
  let b = bucket s e in
  s.buckets.(b) <- List.filter (fun x -> x != e) s.buckets.(b);
  s.size <- s.size - 1;
  if s.size = 0 then t.spaces <- List.filter (fun x -> x != s) t.spaces

let install t compiled =
  let entries_needed = compiled.Rules.Rule_compiler.tcam_entries in
  let faulted = match t.install_fault with None -> false | Some f -> f () in
  if faulted then begin
    (* The hardware write failed: no TCAM entries were consumed, so
       there is nothing to roll back. *)
    Obs.Metrics.incr m_install_faults;
    if Obs.Trace.enabled () then
      Obs.Trace.emit ~now:(Dcsim.Engine.now t.engine)
        (Obs.Trace.Tcam_error
           { tenant = t.tenant; kind = "install_fault"; entries = entries_needed });
    Error `Install_fault
  end
  else if not (Tcam.reserve t.tcam entries_needed) then Error `Tcam_full
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let entry = { id; compiled } in
    t.entries <- entry :: t.entries;
    index_add t entry;
    List.iter
      (fun (tr : Rules.Tunnel_rule.t) ->
        Rules.Tunnel_rule.Map.install t.tunnels tr;
        let k = ip_key tr.vm_ip in
        let refs = Option.value (Hashtbl.find_opt t.tunnel_refcounts k) ~default:0 in
        Hashtbl.replace t.tunnel_refcounts k (refs + 1))
      compiled.tunnels;
    Obs.Metrics.incr m_installs;
    Obs.Metrics.observe m_install_entries (float_of_int entries_needed);
    if Obs.Trace.enabled () then
      Obs.Trace.emit ~now:(Dcsim.Engine.now t.engine)
        (Obs.Trace.Tcam_install
           {
             tenant = t.tenant;
             entries = entries_needed;
             used = Tcam.used t.tcam;
             capacity = Tcam.capacity t.tcam;
           });
    Ok id
  end

let remove t handle =
  match List.find_opt (fun e -> e.id = handle) t.entries with
  | None -> ()
  | Some entry ->
      t.entries <- List.filter (fun e -> e.id <> handle) t.entries;
      index_remove t entry;
      Tcam.release t.tcam entry.compiled.Rules.Rule_compiler.tcam_entries;
      Obs.Metrics.incr m_removes;
      if Obs.Trace.enabled () then
        Obs.Trace.emit ~now:(Dcsim.Engine.now t.engine)
          (Obs.Trace.Tcam_evict
             {
               tenant = t.tenant;
               entries = entry.compiled.Rules.Rule_compiler.tcam_entries;
               used = Tcam.used t.tcam;
               capacity = Tcam.capacity t.tcam;
             });
      List.iter
        (fun (tr : Rules.Tunnel_rule.t) ->
          let k = ip_key tr.vm_ip in
          let refs = Option.value (Hashtbl.find_opt t.tunnel_refcounts k) ~default:0 in
          if refs <= 1 then begin
            Hashtbl.remove t.tunnel_refcounts k;
            Rules.Tunnel_rule.Map.remove t.tunnels ~tenant:t.tenant ~vm_ip:tr.vm_ip
          end
          else Hashtbl.replace t.tunnel_refcounts k (refs - 1))
        entry.compiled.tunnels

let installed_count t = List.length t.entries
let is_live t handle = List.exists (fun e -> e.id = handle) t.entries
let live_handles t = List.map (fun e -> e.id) t.entries

(* A soft error (bit flip) corrupts one installed entry; the switch
   parity-scrubs it out, which we model as a silent eviction: the rules
   and tunnel mappings vanish from the dataplane with no notification
   to any controller. Only the anti-entropy audit can find and repair
   the resulting intent/hardware divergence. *)
let evict_random t ~rng =
  match t.entries with
  | [] -> None
  | entries ->
      let victim = List.nth entries (Dcsim.Rng.int rng (List.length entries)) in
      let entries_lost = victim.compiled.Rules.Rule_compiler.tcam_entries in
      Obs.Metrics.incr m_soft_errors;
      if Obs.Trace.enabled () then
        Obs.Trace.emit ~now:(Dcsim.Engine.now t.engine)
          (Obs.Trace.Tcam_error
             { tenant = t.tenant; kind = "soft_error"; entries = entries_lost });
      remove t victim.id;
      Some victim.id

(* [probe] looks [flow] up in each space and [scan] walks one bucket,
   until an entry matches. The hash only narrows: [matches] decides. *)
let rec probe flow = function
  | [] -> false
  | s :: spaces ->
      let buckets = s.buckets in
      scan flow spaces
        buckets.(Mask.hash_flow s.mask flow land (Array.length buckets - 1))

and scan flow spaces = function
  | e :: rest ->
      Fkey.Pattern.matches e.compiled.Rules.Rule_compiler.acl_pattern flow
      || scan flow spaces rest
  | [] -> probe flow spaces

let permits t flow = probe flow t.spaces

let tunnel_for t ~dst_ip =
  Rules.Tunnel_rule.Map.lookup t.tunnels ~tenant:t.tenant ~vm_ip:dst_ip
