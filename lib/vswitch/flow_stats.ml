module Fkey = Netcore.Fkey

(* [swept] is [packets] as of the last [expire]. Every [record] adds at
   least one packet, so [packets = swept] means the flow counted
   nothing since that sweep. *)
type counters = { mutable packets : int; mutable bytes : int; mutable swept : int }
type t = counters Fkey.Table.t

let create () : t = Fkey.Table.create 128

(* [find]/[Not_found] instead of [find_opt]: the steady-state hit path
   (counters already exist) must not allocate the [Some] box — this
   runs once per packet group on the vhost path. *)
let record t flow ~packets ~bytes =
  match Fkey.Table.find t flow with
  | c ->
      c.packets <- c.packets + packets;
      c.bytes <- c.bytes + bytes
  | exception Not_found -> Fkey.Table.add t flow { packets; bytes; swept = 0 }

let expire t =
  let idle =
    Fkey.Table.fold
      (fun flow c acc ->
        if c.packets = c.swept then flow :: acc
        else begin
          c.swept <- c.packets;
          acc
        end)
      t []
  in
  List.iter (Fkey.Table.remove t) idle

let to_list t =
  Fkey.Table.fold (fun k c acc -> (k, c.packets, c.bytes) :: acc) t []
