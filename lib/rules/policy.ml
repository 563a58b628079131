module Fkey = Netcore.Fkey

type t = {
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  tx_limit : Rate_limit_spec.t;
  mutable acls : Security_rule.t list;  (* Priority desc, insertion-newest first among ties. *)
  mutable qos : Qos_rule.t list;
  tunnels : Tunnel_rule.Map.t;
  mutable generation : int;
      (* Bumped by every mutation; datapath caches compare it to the
         value they captured to detect stale verdicts in O(1). *)
}

let create ~tenant ~vm_ip ?(tx_limit = Rate_limit_spec.unlimited) () =
  {
    tenant;
    vm_ip;
    tx_limit;
    acls = [ Security_rule.deny_all tenant ];
    qos = [];
    tunnels = Tunnel_rule.Map.create ();
    generation = 0;
  }

let tenant t = t.tenant
let vm_ip t = t.vm_ip
let tx_limit t = t.tx_limit
let generation t = t.generation
let touch t = t.generation <- t.generation + 1

let insert_by_priority priority_of rule rules =
  let rec place = function
    | [] -> [ rule ]
    | r :: rest as l ->
        if priority_of rule >= priority_of r then rule :: l else r :: place rest
  in
  place rules

let add_acl t rule =
  t.acls <- insert_by_priority (fun (r : Security_rule.t) -> r.priority) rule t.acls;
  touch t

let add_qos t rule =
  t.qos <- insert_by_priority (fun (r : Qos_rule.t) -> r.priority) rule t.qos;
  touch t

let install_tunnel t rule =
  Tunnel_rule.Map.install t.tunnels rule;
  touch t

let remove_tunnel t ~vm_ip =
  Tunnel_rule.Map.remove t.tunnels ~tenant:t.tenant ~vm_ip;
  touch t

let acl_count t = List.length t.acls
let acls t = t.acls
let qos_rules t = t.qos

let tunnel_lookup t ~dst_ip =
  Tunnel_rule.Map.lookup t.tunnels ~tenant:t.tenant ~vm_ip:dst_ip

type verdict = {
  action : Security_rule.action;
  queue : int;
  tunnel : Tunnel_rule.endpoint option;
}

let matching_acl t key = List.find_opt (fun r -> Security_rule.matches r key) t.acls

let classify t key =
  let action =
    match matching_acl t key with
    | Some r -> r.Security_rule.action
    | None -> Security_rule.Deny
  in
  let queue =
    match List.find_opt (fun r -> Qos_rule.matches r key) t.qos with
    | Some r -> r.Qos_rule.queue
    | None -> 0
  in
  let tunnel = tunnel_lookup t ~dst_ip:key.Fkey.dst_ip in
  { action; queue; tunnel }

(* [scan_masked matches pattern_of rules key] folds the same scan as
   [List.find_opt matches] but also unions the pattern fields of every
   rule visited (including the deciding one). The union is the soundness
   core of the megaflow mask: any flow agreeing with [key] on those
   fields fails the same non-matching rules (each pins at least one
   differing field) and passes the same deciding rule, so it must get
   the same outcome. *)
let scan_masked matches pattern_of rules key =
  let module Mask = Fkey.Pattern.Mask in
  let rec go mask = function
    | [] -> (None, mask)
    | r :: rest ->
        let mask = Mask.union mask (Mask.of_pattern (pattern_of r)) in
        if matches r key then (Some r, mask) else go mask rest
  in
  go Mask.none rules

let classify_masked t key =
  let module Mask = Fkey.Pattern.Mask in
  let deciding, acl_mask =
    scan_masked Security_rule.matches
      (fun (r : Security_rule.t) -> r.pattern)
      t.acls key
  in
  let action =
    match deciding with
    | Some r -> r.Security_rule.action
    | None -> Security_rule.Deny
  in
  let qos_match, qos_mask =
    scan_masked Qos_rule.matches (fun (r : Qos_rule.t) -> r.pattern) t.qos key
  in
  let queue = match qos_match with Some r -> r.Qos_rule.queue | None -> 0 in
  let tunnel = tunnel_lookup t ~dst_ip:key.Fkey.dst_ip in
  let mask = Mask.union acl_mask qos_mask in
  (* The tunnel map is keyed by (tenant, dst IP): once any tunnel is
     installed, flows to different destinations can resolve to different
     endpoints, so the mask must pin dst_ip (tenant is fixed per
     policy). With no tunnels the lookup is uniformly [None]. *)
  let mask =
    if Tunnel_rule.Map.size t.tunnels > 0 then
      Mask.union mask { Mask.none with Mask.dst_ip = true; tenant = true }
    else mask
  in
  ({ action; queue; tunnel }, mask)

let verdict_to_string v =
  let action =
    match v.action with Security_rule.Allow -> "allow" | Security_rule.Deny -> "deny"
  in
  let tunnel =
    match v.tunnel with
    | None -> "-"
    | Some ep ->
        Format.asprintf "%a" Netcore.Ipv4.pp ep.Tunnel_rule.server_ip
  in
  Printf.sprintf "%s/q%d/%s" action v.queue tunnel

let pp ppf t =
  Format.fprintf ppf "policy %a/%a: %d acls, %d qos, %d tunnels, tx %a"
    Netcore.Tenant.pp t.tenant Netcore.Ipv4.pp t.vm_ip (List.length t.acls)
    (List.length t.qos)
    (Tunnel_rule.Map.size t.tunnels)
    Rate_limit_spec.pp t.tx_limit
