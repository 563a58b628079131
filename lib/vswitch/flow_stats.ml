module Fkey = Netcore.Fkey

type counters = { mutable packets : int; mutable bytes : int }
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
  | exception Not_found -> Fkey.Table.add t flow { packets; bytes }

let find t flow = Fkey.Table.find_opt t flow
let remove t flow = Fkey.Table.remove t flow
let clear t = Fkey.Table.clear t
let fold t ~init ~f = Fkey.Table.fold (fun k c acc -> f acc k c) t init

let to_list t =
  Fkey.Table.fold (fun k c acc -> (k, c.packets, c.bytes) :: acc) t []
