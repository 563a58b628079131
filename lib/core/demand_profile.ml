module Fkey = Netcore.Fkey

type entry = {
  pattern : Fkey.Pattern.t;
  median_pps : float;
  median_bps : float;
  epochs_active : int;
  last_interval : int;
}

type t = {
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;
  table : (Fkey.Pattern.t, entry) Hashtbl.t;
}

let create ~tenant ~vm_ip = { tenant; vm_ip; table = Hashtbl.create 32 }
let vm_ip t = t.vm_ip

let update t (report : Measurement_engine.report) =
  List.iter
    (fun (e : Measurement_engine.entry) ->
      if
        Netcore.Ipv4.equal e.owner.Measurement_engine.vm_ip t.vm_ip
        && Netcore.Tenant.equal e.owner.Measurement_engine.tenant t.tenant
      then
        Hashtbl.replace t.table e.pattern
          {
            pattern = e.pattern;
            median_pps = e.median_pps;
            median_bps = e.median_bps;
            epochs_active = e.epochs_active;
            last_interval = report.interval_index;
          })
    report.entries

let expire t ~before =
  Hashtbl.filter_map_inplace
    (fun _ e -> if e.last_interval < before then None else Some e)
    t.table

let restamp t ~interval =
  Hashtbl.filter_map_inplace
    (fun _ e -> Some { e with last_interval = interval })
    t.table

let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
let entry_count t = Hashtbl.length t.table

let rehome_pattern (p : Fkey.Pattern.t) ~old_ip ~new_ip : Fkey.Pattern.t =
  let swap = function
    | Some ip when Netcore.Ipv4.equal ip old_ip -> Some new_ip
    | other -> other
  in
  { p with src_ip = swap p.src_ip; dst_ip = swap p.dst_ip }

let clone_for t ~vm_ip =
  let clone = create ~tenant:t.tenant ~vm_ip in
  Hashtbl.iter
    (fun pattern e ->
      let pattern = rehome_pattern pattern ~old_ip:t.vm_ip ~new_ip:vm_ip in
      Hashtbl.replace clone.table pattern { e with pattern })
    t.table;
  clone
