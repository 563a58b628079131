module Fkey = Netcore.Fkey

type compiled = {
  tenant : Netcore.Tenant.id;
  acl_pattern : Fkey.Pattern.t;
  tunnels : Tunnel_rule.t list;
  tcam_entries : int;
}

type error = Denied_by_policy | No_tunnel_mapping of Netcore.Ipv4.t

(* Intersection of two patterns: the more specific field wins; returns
   None if the patterns are disjoint on some field. *)
let intersect (a : Fkey.Pattern.t) (b : Fkey.Pattern.t) : Fkey.Pattern.t option =
  let field eq x y =
    match (x, y) with
    | None, v | v, None -> Ok v
    | Some p, Some q -> if eq p q then Ok (Some p) else Error ()
  in
  match
    ( field Netcore.Ipv4.equal a.src_ip b.src_ip,
      field Netcore.Ipv4.equal a.dst_ip b.dst_ip,
      field ( = ) a.src_port b.src_port,
      field ( = ) a.dst_port b.dst_port,
      field (fun x y -> Fkey.proto_compare x y = 0) a.proto b.proto,
      field Netcore.Tenant.equal a.tenant b.tenant )
  with
  | Ok src_ip, Ok dst_ip, Ok src_port, Ok dst_port, Ok proto, Ok tenant ->
      Some { src_ip; dst_ip; src_port; dst_port; proto; tenant }
  | _ -> None

let compile ~policy ~selection ~destinations =
  let tenant = Policy.tenant policy in
  (* The decision is taken by the highest-priority ACL whose pattern
     intersects the selection at all. A Deny there means part of the
     selection is forbidden, and a hardware rule covering it would
     punch through isolation: refuse conservatively. *)
  let first_intersecting =
    List.find_map
      (fun (acl : Security_rule.t) ->
        match intersect selection acl.pattern with
        | Some inter -> Some (acl, inter)
        | None -> None)
      (Policy.acls policy)
  in
  match first_intersecting with
  | None | Some ({ Security_rule.action = Deny; _ }, _) -> Error Denied_by_policy
  | Some (({ Security_rule.action = Allow; _ } as _acl), inter) ->
      (* The hardware rule must not allow more than both the selection
         and the software ACL that justified it. *)
      let acl_pattern = { inter with Fkey.Pattern.tenant = Some tenant } in
      let rec gather acc = function
        | [] -> Ok (List.rev acc)
        | dst :: rest -> (
            match Policy.tunnel_lookup policy ~dst_ip:dst with
            | None -> Error (No_tunnel_mapping dst)
            | Some endpoint ->
                gather (Tunnel_rule.make ~tenant ~vm_ip:dst endpoint :: acc) rest)
      in
      (match gather [] destinations with
      | Error e -> Error e
      | Ok tunnels ->
          Ok
            {
              tenant;
              acl_pattern;
              tunnels;
              tcam_entries = 1 + List.length tunnels;
            })

let compile_flow ~policy ~flow =
  compile ~policy
    ~selection:(Fkey.Pattern.exact flow)
    ~destinations:[ flow.Fkey.dst_ip ]

let pp_error ppf = function
  | Denied_by_policy -> Format.pp_print_string ppf "denied by policy"
  | No_tunnel_mapping ip ->
      Format.fprintf ppf "no tunnel mapping for %a" Netcore.Ipv4.pp ip
