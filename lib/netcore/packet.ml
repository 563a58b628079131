type encap =
  | Vlan of int
  | Gre of { tunnel_dst : Ipv4.t; key : Tenant.id }
  | Vxlan of { tunnel_dst : Ipv4.t; vni : Tenant.id }

type l4 =
  | Plain
  | Tcp_seg of { seq : int; ack : int; len : int; flags : tcp_flags }
  | App of { fin : bool; count : int }

and tcp_flags = { syn : bool; fin : bool; is_ack : bool }

type t = {
  flow : Fkey.t;
  payload : int;
  l4 : l4;
  bulk : bool;
  mutable encaps : encap list;
  mutable hops : int;
  sent_at : Dcsim.Simtime.t;
  uid : int;
}

let uid_counter = ref 0

let create ~now ~flow ~payload ?(l4 = Plain) ?(bulk = false) () =
  incr uid_counter;
  { flow; payload; l4; bulk; encaps = []; hops = 0; sent_at = now; uid = !uid_counter }

let data_packet ~now ~flow ~payload = create ~now ~flow ~payload ()

let copy t = { t with encaps = t.encaps }

let push_encap t encap = t.encaps <- encap :: t.encaps

let pop_encap t =
  match t.encaps with
  | [] -> None
  | e :: rest ->
      t.encaps <- rest;
      Some e

let outer_encap t = match t.encaps with [] -> None | e :: _ -> Some e

let encap_size = function
  | Vlan _ -> Hdr.vlan_tag
  | Gre _ -> Hdr.ipv4 + Hdr.gre
  | Vxlan _ -> (Hdr.ethernet - 4) + Hdr.ipv4 + Hdr.vxlan

let wire_size t =
  let l4_hdr =
    match t.l4 with Plain | App _ -> Hdr.udp | Tcp_seg _ -> Hdr.tcp
  in
  let base = Hdr.ethernet + Hdr.ipv4 + l4_hdr + t.payload in
  List.fold_left (fun acc e -> acc + encap_size e) base t.encaps

let vlan_of t = match t.encaps with Vlan v :: _ -> Some v | _ -> None

let reset_uid_counter () = uid_counter := 0
