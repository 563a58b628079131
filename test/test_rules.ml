(* Tests for the rule model: ACLs, QoS, tunnels, the priority table with
   its exact-match cache, policies, and the offload rule compiler. *)

module Fkey = Netcore.Fkey
module Ipv4 = Netcore.Ipv4

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let tenant = Netcore.Tenant.of_int 7
let vm_ip = Ipv4.of_string "10.7.0.1"
let peer_ip = Ipv4.of_string "10.7.0.2"

let flow ?(dport = 80) ?(sport = 1000) () =
  Fkey.make ~src_ip:vm_ip ~dst_ip:peer_ip ~src_port:sport ~dst_port:dport
    ~proto:Fkey.Tcp ~tenant

let endpoint =
  {
    Rules.Tunnel_rule.server_ip = Ipv4.of_string "192.168.1.10";
    tor_ip = Ipv4.of_string "192.168.0.1";
  }

(* --- Security rules --- *)

let test_security_defaults () =
  let r = Rules.Security_rule.make (Fkey.Pattern.exact (flow ())) Allow in
  checki "priority = specificity" 6 r.Rules.Security_rule.priority;
  checkb "matches" true (Rules.Security_rule.matches r (flow ()))

let test_security_deny_all () =
  let r = Rules.Security_rule.deny_all tenant in
  checkb "matches tenant traffic" true (Rules.Security_rule.matches r (flow ()));
  checki "lowest priority" (-1) r.Rules.Security_rule.priority;
  let other =
    Fkey.make ~src_ip:vm_ip ~dst_ip:peer_ip ~src_port:1 ~dst_port:1
      ~proto:Fkey.Tcp ~tenant:(Netcore.Tenant.of_int 9)
  in
  checkb "other tenant unmatched" false (Rules.Security_rule.matches r other)

(* --- Qos rules --- *)

let test_qos_rule () =
  let r =
    Rules.Qos_rule.make
      { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some 80 }
      ~queue:3
  in
  checkb "matches port" true (Rules.Qos_rule.matches r (flow ()));
  checkb "other port" false (Rules.Qos_rule.matches r (flow ~dport:81 ()));
  checki "queue" 3 r.Rules.Qos_rule.queue

(* --- Tunnel map --- *)

let test_tunnel_map () =
  let m = Rules.Tunnel_rule.Map.create () in
  Rules.Tunnel_rule.Map.install m (Rules.Tunnel_rule.make ~tenant ~vm_ip:peer_ip endpoint);
  checki "size" 1 (Rules.Tunnel_rule.Map.size m);
  (match Rules.Tunnel_rule.Map.lookup m ~tenant ~vm_ip:peer_ip with
  | Some ep -> checkb "endpoint" true (Ipv4.equal ep.server_ip endpoint.server_ip)
  | None -> Alcotest.fail "expected mapping");
  checkb "other tenant isolated" true
    (Rules.Tunnel_rule.Map.lookup m ~tenant:(Netcore.Tenant.of_int 9) ~vm_ip:peer_ip
    = None);
  Rules.Tunnel_rule.Map.remove m ~tenant ~vm_ip:peer_ip;
  checki "removed" 0 (Rules.Tunnel_rule.Map.size m)

(* --- Rate limit spec --- *)

let test_rate_limit_spec () =
  let spec = Rules.Rate_limit_spec.gbps 1.0 in
  Alcotest.check (Alcotest.float 1.0) "rate" 1e9 spec.Rules.Rate_limit_spec.rate_bps;
  checkb "burst ~100ms" true
    (spec.Rules.Rate_limit_spec.burst_bytes = int_of_float (1e9 /. 8.0 *. 0.1));
  checkb "unlimited" true
    (Rules.Rate_limit_spec.is_unlimited Rules.Rate_limit_spec.unlimited);
  let small = Rules.Rate_limit_spec.make ~rate_bps:1000.0 () in
  checkb "burst floored at MTU" true
    (small.Rules.Rate_limit_spec.burst_bytes >= Netcore.Hdr.mtu)

(* --- Rule table --- *)

let test_table_priority () =
  let t = Rules.Rule_table.create () in
  ignore (Rules.Rule_table.insert t ~pattern:Fkey.Pattern.any ~priority:0 "low");
  ignore
    (Rules.Rule_table.insert t
       ~pattern:(Fkey.Pattern.exact (flow ()))
       ~priority:10 "high");
  (match Rules.Rule_table.lookup_slow t (flow ()) with
  | Some v -> Alcotest.check Alcotest.string "high wins" "high" v
  | None -> Alcotest.fail "expected match");
  match Rules.Rule_table.lookup_slow t (flow ~dport:99 ()) with
  | Some v -> Alcotest.check Alcotest.string "fallback" "low" v
  | None -> Alcotest.fail "expected fallback"

let test_table_tie_newest_wins () =
  let t = Rules.Rule_table.create () in
  ignore (Rules.Rule_table.insert t ~pattern:Fkey.Pattern.any ~priority:5 "old");
  ignore (Rules.Rule_table.insert t ~pattern:Fkey.Pattern.any ~priority:5 "new");
  match Rules.Rule_table.lookup_slow t (flow ()) with
  | Some v -> Alcotest.check Alcotest.string "newest" "new" v
  | None -> Alcotest.fail "expected match"

(* [find] and whether it took the slow path: a hit leaves
   [slow_lookups] alone and bumps [fast_hits], a miss the reverse. *)
let find_counted t f =
  let slow = Rules.Rule_table.slow_lookups t
  and fast = Rules.Rule_table.fast_hits t in
  let v = Rules.Rule_table.find t f in
  let missed = Rules.Rule_table.slow_lookups t = slow + 1 in
  checki "exactly one path counted" 1
    (Rules.Rule_table.slow_lookups t - slow + Rules.Rule_table.fast_hits t - fast);
  (v, if missed then `Miss else `Hit)

let test_table_cache () =
  let t = Rules.Rule_table.create () in
  ignore (Rules.Rule_table.insert t ~pattern:Fkey.Pattern.any ~priority:0 ());
  (match find_counted t (flow ()) with
  | Some (), `Miss -> ()
  | _ -> Alcotest.fail "first lookup should miss");
  (match find_counted t (flow ()) with
  | Some (), `Hit -> ()
  | _ -> Alcotest.fail "second lookup should hit");
  checki "one slow lookup" 1 (Rules.Rule_table.slow_lookups t);
  checki "one fast hit" 1 (Rules.Rule_table.fast_hits t);
  checki "cache size" 1 (Rules.Rule_table.cache_size t)

let test_table_cache_invalidation () =
  let t = Rules.Rule_table.create () in
  ignore (Rules.Rule_table.insert t ~pattern:Fkey.Pattern.any ~priority:0 "a");
  ignore (Rules.Rule_table.find t (flow ()));
  ignore (Rules.Rule_table.insert t ~pattern:(Fkey.Pattern.exact (flow ())) ~priority:9 "b");
  (match find_counted t (flow ()) with
  | Some "b", `Miss -> ()
  | _ -> Alcotest.fail "insert must invalidate cache and new rule win");
  ()

let test_table_remove () =
  let t = Rules.Rule_table.create () in
  let id = Rules.Rule_table.insert t ~pattern:Fkey.Pattern.any ~priority:0 "x" in
  checkb "removed" true (Rules.Rule_table.remove t id);
  checkb "idempotent" false (Rules.Rule_table.remove t id);
  checkb "no match" true (Rules.Rule_table.lookup_slow t (flow ()) = None);
  checki "empty" 0 (Rules.Rule_table.rule_count t)

let test_table_negative_caching () =
  let t : unit Rules.Rule_table.t = Rules.Rule_table.create () in
  (match find_counted t (flow ()) with
  | None, `Miss -> ()
  | _ -> Alcotest.fail "miss none");
  match find_counted t (flow ()) with
  | None, `Hit -> ()
  | _ -> Alcotest.fail "negative result cached"

let test_table_many_rules () =
  (* The 10,000-rule experiment: steady-state lookups stay O(1). *)
  let t = Rules.Rule_table.create () in
  for i = 1 to 10_000 do
    ignore
      (Rules.Rule_table.insert t
         ~pattern:{ Fkey.Pattern.any with Fkey.Pattern.dst_port = Some (i + 10000) }
         ~priority:1 i)
  done;
  checki "count" 10_000 (Rules.Rule_table.rule_count t);
  ignore (Rules.Rule_table.find t (flow ()));
  let hits_before = Rules.Rule_table.fast_hits t in
  for _ = 1 to 100 do
    ignore (Rules.Rule_table.find t (flow ()))
  done;
  checki "all cached" (hits_before + 100) (Rules.Rule_table.fast_hits t);
  checki "one slow lookup" 1 (Rules.Rule_table.slow_lookups t)

let test_table_fold () =
  let t = Rules.Rule_table.create () in
  ignore (Rules.Rule_table.insert t ~pattern:Fkey.Pattern.any ~priority:1 1);
  ignore (Rules.Rule_table.insert t ~pattern:Fkey.Pattern.any ~priority:9 9);
  let order =
    Rules.Rule_table.fold_rules t ~init:[] ~f:(fun acc _ _ _ v -> v :: acc)
  in
  Alcotest.check (Alcotest.list Alcotest.int) "priority order" [ 1; 9 ] order

(* --- Policy --- *)

let make_policy () =
  let p = Rules.Policy.create ~tenant ~vm_ip () in
  Rules.Policy.add_acl p
    (Rules.Security_rule.make ~priority:5
       { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some 80; tenant = Some tenant }
       Allow);
  Rules.Policy.add_qos p
    (Rules.Qos_rule.make ~priority:5
       { Fkey.Pattern.any with Fkey.Pattern.dst_port = Some 80 }
       ~queue:2);
  Rules.Policy.install_tunnel p (Rules.Tunnel_rule.make ~tenant ~vm_ip:peer_ip endpoint);
  p

let test_policy_classify_allow () =
  let p = make_policy () in
  let v = Rules.Policy.classify p (flow ()) in
  checkb "allow" true (v.Rules.Policy.action = Rules.Security_rule.Allow);
  checki "queue" 2 v.Rules.Policy.queue;
  checkb "tunnel found" true (v.Rules.Policy.tunnel <> None)

let test_policy_default_deny () =
  let p = make_policy () in
  let v = Rules.Policy.classify p (flow ~dport:22 ()) in
  checkb "deny" true (v.Rules.Policy.action = Rules.Security_rule.Deny);
  checki "best effort queue" 0 v.Rules.Policy.queue

let test_policy_priority_overrides () =
  let p = make_policy () in
  (* A higher-priority deny carves a hole out of the port-80 allow. *)
  Rules.Policy.add_acl p
    (Rules.Security_rule.make ~priority:9
       { Fkey.Pattern.any with Fkey.Pattern.src_port = Some 6666 }
       Deny);
  let v = Rules.Policy.classify p (flow ~sport:6666 ()) in
  checkb "deny wins" true (v.Rules.Policy.action = Rules.Security_rule.Deny);
  let v = Rules.Policy.classify p (flow ~sport:1000 ()) in
  checkb "others still allowed" true (v.Rules.Policy.action = Rules.Security_rule.Allow)

let test_policy_acl_count () =
  let p = make_policy () in
  (* deny_all backstop + allow rule. *)
  checki "count" 2 (Rules.Policy.acl_count p)

let test_policy_limits () =
  let p = make_policy () in
  checkb "default unlimited" true
    (Rules.Rate_limit_spec.is_unlimited (Rules.Policy.tx_limit p));
  let p =
    Rules.Policy.create ~tenant ~vm_ip ~tx_limit:(Rules.Rate_limit_spec.gbps 1.0) ()
  in
  checkb "set" false (Rules.Rate_limit_spec.is_unlimited (Rules.Policy.tx_limit p))

(* --- Rule compiler --- *)

let test_compile_flow_ok () =
  let p = make_policy () in
  match Rules.Rule_compiler.compile_flow ~policy:p ~flow:(flow ()) with
  | Ok c ->
      checki "entries" 2 c.Rules.Rule_compiler.tcam_entries;
      checki "one tunnel" 1 (List.length c.Rules.Rule_compiler.tunnels);
      checkb "acl covers flow" true
        (Fkey.Pattern.matches c.Rules.Rule_compiler.acl_pattern (flow ()));
      checki "queue carried" 2 c.Rules.Rule_compiler.queue
  | Error e ->
      Alcotest.failf "unexpected: %s"
        (Format.asprintf "%a" Rules.Rule_compiler.pp_error e)

let test_compile_denied () =
  let p = make_policy () in
  match Rules.Rule_compiler.compile_flow ~policy:p ~flow:(flow ~dport:22 ()) with
  | Error Rules.Rule_compiler.Denied_by_policy -> ()
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "denied flow must not compile"

let test_compile_no_tunnel () =
  let p = Rules.Policy.create ~tenant ~vm_ip () in
  Rules.Policy.add_acl p (Rules.Security_rule.allow_all tenant);
  match Rules.Rule_compiler.compile_flow ~policy:p ~flow:(flow ()) with
  | Error (Rules.Rule_compiler.No_tunnel_mapping ip) ->
      checkb "names missing dst" true (Ipv4.equal ip peer_ip)
  | _ -> Alcotest.fail "expected missing tunnel error"

let test_compile_aggregate_never_broader () =
  let p = make_policy () in
  let selection = Fkey.Pattern.src_aggregate (flow ()) in
  match
    Rules.Rule_compiler.compile ~policy:p ~selection ~destinations:[ peer_ip ]
  with
  | Ok c ->
      (* The hardware ACL must not permit flows outside the selection. *)
      checkb "covers selection member" true
        (Fkey.Pattern.matches c.Rules.Rule_compiler.acl_pattern (flow ()));
      checkb "subset of selection" true
        (Fkey.Pattern.is_subset c.Rules.Rule_compiler.acl_pattern ~of_:selection)
  | Error _ -> Alcotest.fail "expected compile"

let test_compile_multi_destination () =
  let p = make_policy () in
  let third = Ipv4.of_string "10.7.0.3" in
  Rules.Policy.install_tunnel p (Rules.Tunnel_rule.make ~tenant ~vm_ip:third endpoint);
  match
    Rules.Rule_compiler.compile ~policy:p
      ~selection:(Fkey.Pattern.src_aggregate (flow ()))
      ~destinations:[ peer_ip; third ]
  with
  | Ok c ->
      checki "two tunnels" 2 (List.length c.Rules.Rule_compiler.tunnels);
      checki "three entries" 3 c.Rules.Rule_compiler.tcam_entries
  | Error _ -> Alcotest.fail "expected compile"

(* --- Properties --- *)

let prop_table_matches_linear_scan =
  (* The cached lookup must agree with a fresh priority scan. *)
  QCheck2.Test.make ~name:"rule table cache agrees with slow path" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 10) (int_range 0 5)))
    (fun rules ->
      let t = Rules.Rule_table.create () in
      List.iteri
        (fun i (priority, port) ->
          ignore
            (Rules.Rule_table.insert t
               ~pattern:{ Fkey.Pattern.any with Fkey.Pattern.dst_port = Some port }
               ~priority i))
        rules;
      (* Twice over the ports: the first pass fills the cache, the
         second is served from it. *)
      let ports = [ 0; 1; 2; 3; 4; 5; 6 ] in
      List.for_all
        (fun port ->
          let f = flow ~dport:port () in
          Rules.Rule_table.lookup_slow t f = Rules.Rule_table.find t f)
        (ports @ ports)
      && Rules.Rule_table.fast_hits t = List.length ports)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "security defaults" test_security_defaults;
    t "security deny_all" test_security_deny_all;
    t "qos rule" test_qos_rule;
    t "tunnel map" test_tunnel_map;
    t "rate limit spec" test_rate_limit_spec;
    t "table priority" test_table_priority;
    t "table tie newest wins" test_table_tie_newest_wins;
    t "table cache" test_table_cache;
    t "table cache invalidation" test_table_cache_invalidation;
    t "table remove" test_table_remove;
    t "table negative caching" test_table_negative_caching;
    t "table 10k rules O(1)" test_table_many_rules;
    t "table fold order" test_table_fold;
    t "policy classify allow" test_policy_classify_allow;
    t "policy default deny" test_policy_default_deny;
    t "policy priority override" test_policy_priority_overrides;
    t "policy acl count" test_policy_acl_count;
    t "policy limits" test_policy_limits;
    t "compile flow ok" test_compile_flow_ok;
    t "compile denied" test_compile_denied;
    t "compile no tunnel" test_compile_no_tunnel;
    t "compile aggregate never broader" test_compile_aggregate_never_broader;
    t "compile multi destination" test_compile_multi_destination;
    QCheck_alcotest.to_alcotest prop_table_matches_linear_scan;
  ]
