type path = Vif | Vf

type t = {
  vif_tx : Netcore.Packet.t -> unit;
  vf_tx : Netcore.Packet.t -> unit;
  rules : path Rules.Rule_table.t;
  mutable via_vif : int;
  mutable via_vf : int;
}

let create ~vif_tx ~vf_tx =
  { vif_tx; vf_tx; rules = Rules.Rule_table.create (); via_vif = 0; via_vf = 0 }

(* One cached rule-table probe per packet; a hit allocates nothing. *)
let decide t flow =
  match Rules.Rule_table.find t.rules flow with
  | Some p -> p
  | None -> Vif

let transmit t pkt =
  match decide t pkt.Netcore.Packet.flow with
  | Vif ->
      t.via_vif <- t.via_vif + 1;
      t.vif_tx pkt
  | Vf ->
      t.via_vf <- t.via_vf + 1;
      t.vf_tx pkt

let install_rule t ~pattern ~priority path =
  Rules.Rule_table.insert t.rules ~pattern ~priority path

let remove_rule t id = Rules.Rule_table.remove t.rules id

let path_for t flow =
  match Rules.Rule_table.lookup_slow t.rules flow with
  | Some p -> p
  | None -> Vif

let rules t =
  Rules.Rule_table.fold_rules t.rules ~init: []
    ~f:(fun acc id pattern _priority path -> (id, pattern, path) :: acc)

let packets_via_vif t = t.via_vif
let packets_via_vf t = t.via_vf
