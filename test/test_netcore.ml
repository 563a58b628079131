(* Tests for addresses, flow keys, patterns, headers and packets. *)

module Ipv4 = Netcore.Ipv4
module Fkey = Netcore.Fkey
module Packet = Netcore.Packet
module Hdr = Netcore.Hdr

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let tenant = Netcore.Tenant.of_int 7

let flow ?(src = "10.7.0.1") ?(dst = "10.7.0.2") ?(sport = 1000) ?(dport = 80)
    ?(proto = Fkey.Tcp) () =
  Fkey.make ~src_ip:(Ipv4.of_string src) ~dst_ip:(Ipv4.of_string dst)
    ~src_port:sport ~dst_port:dport ~proto ~tenant

(* --- Ipv4 --- *)

let test_ipv4_roundtrip () =
  let cases = [ "0.0.0.0"; "10.0.0.1"; "192.168.255.254"; "255.255.255.255" ] in
  List.iter
    (fun s -> check Alcotest.string s s (Ipv4.to_string (Ipv4.of_string s)))
    cases

let test_ipv4_invalid () =
  List.iter
    (fun s ->
      match Ipv4.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "" ]

let test_ipv4_prefix () =
  let addr = Ipv4.of_string "10.1.2.3" in
  checkb "/8 yes" true (Ipv4.in_prefix addr ~prefix:(Ipv4.of_string "10.0.0.0") ~len:8);
  checkb "/24 yes" true
    (Ipv4.in_prefix addr ~prefix:(Ipv4.of_string "10.1.2.0") ~len:24);
  checkb "/24 no" false
    (Ipv4.in_prefix addr ~prefix:(Ipv4.of_string "10.1.3.0") ~len:24);
  checkb "/0 always" true
    (Ipv4.in_prefix addr ~prefix:(Ipv4.of_string "1.1.1.1") ~len:0)

let test_ipv4_offset () =
  check Alcotest.string "offset" "10.0.0.5"
    (Ipv4.to_string (Ipv4.offset (Ipv4.of_string "10.0.0.1") 4))

(* --- Mac / Tenant --- *)

let test_mac_unique () =
  let a = Netcore.Mac.vm_mac ~server:1 ~vm:1 in
  let b = Netcore.Mac.vm_mac ~server:1 ~vm:2 in
  let c = Netcore.Mac.vm_mac ~server:2 ~vm:1 in
  checkb "distinct vm" false (Netcore.Mac.equal a b);
  checkb "distinct server" false (Netcore.Mac.equal a c);
  checkb "stable" true (Netcore.Mac.equal a (Netcore.Mac.vm_mac ~server:1 ~vm:1))

let test_mac_pp () =
  let s = Format.asprintf "%a" Netcore.Mac.pp (Netcore.Mac.of_int 0x0002DEADBEEF) in
  check Alcotest.string "format" "00:02:de:ad:be:ef" s

let test_tenant_vlan () =
  checki "vlan" 7 (Netcore.Tenant.to_vlan tenant);
  Alcotest.check_raises "vlan 0 invalid"
    (Invalid_argument "Tenant.to_vlan: no VLAN allocated for this tenant id")
    (fun () -> ignore (Netcore.Tenant.to_vlan (Netcore.Tenant.of_int 0)))

let test_tenant_range () =
  (match Netcore.Tenant.of_int (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative tenant accepted");
  (* 32-bit GRE key: 2^32 - 1 is representable. *)
  ignore (Netcore.Tenant.of_int 0xFFFFFFFF)

(* --- Fkey --- *)

let test_fkey_reverse () =
  let f = flow () in
  let r = Fkey.reverse f in
  check Alcotest.string "src swapped" "10.7.0.2" (Ipv4.to_string r.Fkey.src_ip);
  checki "ports swapped" 80 r.Fkey.src_port;
  checkb "involution" true (Fkey.equal f (Fkey.reverse r))

let test_fkey_compare_total () =
  let a = flow ~sport:1 () and b = flow ~sport:2 () in
  checkb "neq" false (Fkey.equal a b);
  checki "refl" 0 (Fkey.compare a a);
  checkb "antisym" true (Fkey.compare a b = -Fkey.compare b a)

let test_fkey_table () =
  let t = Fkey.Table.create 4 in
  Fkey.Table.replace t (flow ()) 1;
  Fkey.Table.replace t (flow ~sport:2 ()) 2;
  checki "size" 2 (Fkey.Table.length t);
  checki "find" 1 (Option.get (Fkey.Table.find_opt t (flow ())))

let test_proto_rank_distinct () =
  (* Regression: the old rank encoding ([3 + n] for [Other n]) collided
     with the named protocols for n <= 0 — [Other (-1)] compared equal
     to [Icmp], [Other (-3)] to [Tcp] — merging distinct protocols in
     pattern tables. Every pair drawn from the named protocols and a
     band of [Other n] ids around zero must compare distinct. *)
  let protos =
    [ Fkey.Tcp; Fkey.Udp; Fkey.Icmp ]
    @ List.map (fun n -> Fkey.Other n) [ -3; -2; -1; 0; 1; 2; 3; 255 ]
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i <> j then
            checkb
              (Format.asprintf "distinct %d vs %d" i j)
              false
              (Fkey.proto_compare a b = 0))
        protos)
    protos;
  List.iter
    (fun p -> checki "refl" 0 (Fkey.proto_compare p p))
    protos

(* --- Flow keys at the edges of their domain --- *)

(* Keys that differ only in edge values of one field each: extreme
   ports, [Other] with zero and negative ids (which must not alias the
   named protocols), tenant 0 and 0xFFFFFFFF. One [Fkey.Table] holds
   them all; each is found under a fresh copy of itself, with its own
   value, and none aliases another. *)
let test_fkey_table_edges () =
  let mk sport dport proto tid =
    Fkey.make ~src_ip:(Ipv4.of_string "0.0.0.0")
      ~dst_ip:(Ipv4.of_string "255.255.255.255") ~src_port:sport
      ~dst_port:dport ~proto ~tenant:(Netcore.Tenant.of_int tid)
  in
  let keys =
    [
      mk 0 0 Fkey.Tcp 1;
      mk 65535 65535 Fkey.Udp 1;
      mk 0 65535 Fkey.Icmp 0xFFFFFFFF;
      mk 65535 0 (Fkey.Other 0) 1;
      mk 1 2 (Fkey.Other (-1)) 0xFFFFFFFF;
      mk 3 4 (Fkey.Other 255) 42;
      mk 0 0 Fkey.Tcp 0;
      mk 0 0 Fkey.Tcp 0xFFFFFFFF;
      mk 0 0 Fkey.Icmp 1;
      mk 0 0 (Fkey.Other (-1)) 1;
      mk 0 0 (Fkey.Other 0) 1;
      mk 65535 65535 Fkey.Tcp 1;
    ]
  in
  let tbl = Fkey.Table.create 4 in
  List.iteri (fun i k -> Fkey.Table.replace tbl k i) keys;
  checki "no two keys alias" (List.length keys) (Fkey.Table.length tbl);
  List.iteri
    (fun i (k : Fkey.t) ->
      let copy = { k with Fkey.src_port = k.Fkey.src_port } in
      check (Alcotest.option Alcotest.int)
        (Format.asprintf "%a found" Fkey.pp k)
        (Some i) (Fkey.Table.find_opt tbl copy))
    keys

(* --- Patterns --- *)

let test_pattern_any_matches_all () =
  checkb "any" true (Fkey.Pattern.matches Fkey.Pattern.any (flow ()));
  checki "specificity 0" 0 (Fkey.Pattern.specificity Fkey.Pattern.any)

let test_pattern_exact () =
  let f = flow () in
  let p = Fkey.Pattern.exact f in
  checkb "matches self" true (Fkey.Pattern.matches p f);
  checkb "not other" false (Fkey.Pattern.matches p (flow ~sport:9 ()));
  checki "specificity 6" 6 (Fkey.Pattern.specificity p)

let test_pattern_aggregates () =
  let f = flow () in
  let src = Fkey.Pattern.src_aggregate f in
  checkb "matches same service" true
    (Fkey.Pattern.matches src (flow ~dst:"10.7.0.9" ~dport:999 ()));
  checkb "not other source port" false
    (Fkey.Pattern.matches src (flow ~sport:1001 ()));
  let dst = Fkey.Pattern.dst_aggregate f in
  checkb "incoming aggregate" true
    (Fkey.Pattern.matches dst (flow ~src:"10.7.0.3" ~sport:555 ()));
  checki "aggregate specificity" 3 (Fkey.Pattern.specificity src)

let test_pattern_vm () =
  let f = flow () in
  checkb "from_vm" true
    (Fkey.Pattern.matches (Fkey.Pattern.from_vm f.Fkey.src_ip tenant) f);
  checkb "to_vm" true
    (Fkey.Pattern.matches (Fkey.Pattern.to_vm f.Fkey.dst_ip tenant) f)

let test_pattern_subset () =
  let f = flow () in
  let exact = Fkey.Pattern.exact f in
  let agg = Fkey.Pattern.src_aggregate f in
  checkb "exact subset of aggregate" true (Fkey.Pattern.is_subset exact ~of_:agg);
  checkb "aggregate not subset of exact" false
    (Fkey.Pattern.is_subset agg ~of_:exact);
  checkb "everything subset of any" true
    (Fkey.Pattern.is_subset agg ~of_:Fkey.Pattern.any)

(* --- Hdr --- *)

let test_hdr_segments () =
  checki "one" 1 (Hdr.frames ~payload:100);
  checki "exact" 1 (Hdr.frames ~payload:Hdr.max_tcp_payload);
  checki "two" 2 (Hdr.frames ~payload:(Hdr.max_tcp_payload + 1));
  checki "32000B" 22 (Hdr.frames ~payload:32000)

let test_hdr_frames () =
  checki "mss" 1460 Hdr.max_tcp_payload;
  checki "empty" 1 (Hdr.frames ~payload:0)

(* --- Packet --- *)

let test_packet_encap_stack () =
  let p = Packet.data_packet ~now:Dcsim.Simtime.zero ~flow:(flow ()) ~payload:100 in
  let base = Packet.wire_size p in
  Packet.push_encap p (Packet.Vlan 7);
  Packet.push_encap p
    (Packet.Gre { tunnel_dst = Ipv4.of_string "192.168.0.1"; key = tenant });
  checkb "encap grows wire size" true (Packet.wire_size p > base);
  (match Packet.outer_encap p with
  | Some (Packet.Gre { key; _ }) ->
      checki "outermost last pushed" 7 (Netcore.Tenant.to_int key)
  | _ -> Alcotest.fail "expected GRE outermost");
  (match Packet.pop_encap p with
  | Some (Packet.Gre _) -> ()
  | _ -> Alcotest.fail "pop order");
  (match Packet.pop_encap p with
  | Some (Packet.Vlan 7) -> ()
  | _ -> Alcotest.fail "vlan next");
  checkb "empty" true (Packet.pop_encap p = None);
  checki "back to base" base (Packet.wire_size p)

let test_packet_vlan_of () =
  let p = Packet.data_packet ~now:Dcsim.Simtime.zero ~flow:(flow ()) ~payload:1 in
  checkb "no vlan" true (Packet.vlan_of p = None);
  Packet.push_encap p (Packet.Vlan 42);
  checki "vlan" 42 (Option.get (Packet.vlan_of p))

let test_packet_uids () =
  Packet.reset_uid_counter ();
  let a = Packet.data_packet ~now:Dcsim.Simtime.zero ~flow:(flow ()) ~payload:1 in
  let b = Packet.data_packet ~now:Dcsim.Simtime.zero ~flow:(flow ()) ~payload:1 in
  checkb "unique" true (a.Packet.uid <> b.Packet.uid)

(* --- Properties --- *)

let gen_flow =
  QCheck2.Gen.(
    let* a = int_range 0 255 and* b = int_range 0 255 in
    let* c = int_range 0 255 and* d = int_range 0 255 in
    let* sport = int_range 0 65535 and* dport = int_range 0 65535 in
    let* proto = oneofl [ Fkey.Tcp; Fkey.Udp; Fkey.Icmp ] in
    return
      (Fkey.make
         ~src_ip:(Ipv4.of_octets a b c d)
         ~dst_ip:(Ipv4.of_octets d c b a)
         ~src_port:sport ~dst_port:dport ~proto ~tenant))

let prop_reverse_involution =
  QCheck2.Test.make ~name:"fkey reverse is an involution" ~count:300 gen_flow
    (fun f -> Fkey.equal f (Fkey.reverse (Fkey.reverse f)))

let prop_exact_pattern_matches =
  QCheck2.Test.make ~name:"exact pattern matches its flow" ~count:300 gen_flow
    (fun f -> Fkey.Pattern.matches (Fkey.Pattern.exact f) f)

let prop_aggregate_covers_exact =
  QCheck2.Test.make ~name:"src aggregate covers the flow" ~count:300 gen_flow
    (fun f ->
      Fkey.Pattern.matches (Fkey.Pattern.src_aggregate f) f
      && Fkey.Pattern.is_subset (Fkey.Pattern.exact f)
           ~of_:(Fkey.Pattern.src_aggregate f))

let prop_hash_consistent =
  QCheck2.Test.make ~name:"equal flows hash equally" ~count:300 gen_flow
    (fun f ->
      let copy = Fkey.make ~src_ip:f.Fkey.src_ip ~dst_ip:f.Fkey.dst_ip
          ~src_port:f.Fkey.src_port ~dst_port:f.Fkey.dst_port
          ~proto:f.Fkey.proto ~tenant:f.Fkey.tenant in
      Fkey.hash f = Fkey.hash copy)

(* Full-domain flows: ports hit 0/65535, protocols include [Other n]
   (negative ids too), tenants span the whole 32-bit GRE-key range. *)
let gen_flow_packed =
  QCheck2.Gen.(
    let* a = int_range 0 255 and* b = int_range 0 255 in
    let* sport = oneof [ int_range 0 65535; oneofl [ 0; 65535 ] ] in
    let* dport = oneof [ int_range 0 65535; oneofl [ 0; 65535 ] ] in
    let* proto =
      oneof
        [
          oneofl [ Fkey.Tcp; Fkey.Udp; Fkey.Icmp ];
          map (fun n -> Fkey.Other n) (int_range (-8) 300);
        ]
    in
    let* tid = oneofl [ 0; 1; 7; 4094; 0xFFFF; 0xFFFFFFFF ] in
    return
      (Fkey.make
         ~src_ip:(Ipv4.of_octets a 0 0 b)
         ~dst_ip:(Ipv4.of_octets b 255 1 a)
         ~src_port:sport ~dst_port:dport ~proto
         ~tenant:(Netcore.Tenant.of_int tid)))

(* A fresh record (and a fresh [Other] block) with [f]'s field
   values, so [Fkey.equal]'s physical-equality shortcut cannot answer. *)
let copy_flow (f : Fkey.t) =
  let proto = match f.Fkey.proto with Fkey.Other n -> Fkey.Other n | p -> p in
  Fkey.make ~src_ip:f.Fkey.src_ip ~dst_ip:f.Fkey.dst_ip ~src_port:f.Fkey.src_port
    ~dst_port:f.Fkey.dst_port ~proto ~tenant:f.Fkey.tenant

(* Pairs over the full domain that are often equal: a copy, a key
   differing from the first in one edge-valued field, or an unrelated
   draw. *)
let gen_flow_pair =
  QCheck2.Gen.(
    let* a = gen_flow_packed in
    let* b =
      oneof
        [
          return (copy_flow a);
          map
            (fun (field, (c : Fkey.t)) ->
              match field with
              | 0 -> { a with Fkey.src_port = c.Fkey.src_port }
              | 1 -> { a with Fkey.dst_port = c.Fkey.dst_port }
              | 2 -> { a with Fkey.proto = c.Fkey.proto }
              | 3 -> { a with Fkey.tenant = c.Fkey.tenant }
              | 4 -> { a with Fkey.src_ip = c.Fkey.src_ip }
              | _ -> { a with Fkey.dst_ip = c.Fkey.dst_ip })
            (pair (int_range 0 5) gen_flow_packed);
          gen_flow_packed;
        ]
    in
    return (a, b))

let prop_fkey_equal_agrees_with_compare =
  QCheck2.Test.make ~name:"fkey equal agrees with compare" ~count:500
    gen_flow_pair (fun (a, b) -> Fkey.equal a b = (Fkey.compare a b = 0))

let prop_fkey_equal_hash =
  QCheck2.Test.make ~name:"equal fkeys have equal hashes" ~count:500
    gen_flow_pair (fun (a, b) -> (not (Fkey.equal a b)) || Fkey.hash a = Fkey.hash b)

let prop_ipv4_roundtrip =
  QCheck2.Test.make ~name:"ipv4 string roundtrip" ~count:300
    QCheck2.Gen.(quad (int_range 0 255) (int_range 0 255) (int_range 0 255)
                   (int_range 0 255))
    (fun (a, b, c, d) ->
      let ip = Ipv4.of_octets a b c d in
      Ipv4.equal ip (Ipv4.of_string (Ipv4.to_string ip)))

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "ipv4 roundtrip" test_ipv4_roundtrip;
    t "ipv4 invalid" test_ipv4_invalid;
    t "ipv4 prefix" test_ipv4_prefix;
    t "ipv4 offset" test_ipv4_offset;
    t "mac uniqueness" test_mac_unique;
    t "mac formatting" test_mac_pp;
    t "tenant vlan" test_tenant_vlan;
    t "tenant range" test_tenant_range;
    t "fkey reverse" test_fkey_reverse;
    t "fkey compare total" test_fkey_compare_total;
    t "fkey table" test_fkey_table;
    t "proto ranks pairwise distinct" test_proto_rank_distinct;
    t "fkey table at edges" test_fkey_table_edges;
    t "pattern any" test_pattern_any_matches_all;
    t "pattern exact" test_pattern_exact;
    t "pattern aggregates" test_pattern_aggregates;
    t "pattern vm" test_pattern_vm;
    t "pattern subset" test_pattern_subset;
    t "hdr segments" test_hdr_segments;
    t "hdr frames" test_hdr_frames;
    t "packet encap stack" test_packet_encap_stack;
    t "packet vlan_of" test_packet_vlan_of;
    t "packet uids" test_packet_uids;
    QCheck_alcotest.to_alcotest prop_reverse_involution;
    QCheck_alcotest.to_alcotest prop_exact_pattern_matches;
    QCheck_alcotest.to_alcotest prop_aggregate_covers_exact;
    QCheck_alcotest.to_alcotest prop_hash_consistent;
    QCheck_alcotest.to_alcotest prop_fkey_equal_agrees_with_compare;
    QCheck_alcotest.to_alcotest prop_fkey_equal_hash;
    QCheck_alcotest.to_alcotest prop_ipv4_roundtrip;
  ]
