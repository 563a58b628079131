module Fkey = Netcore.Fkey

type 'a rule = {
  id : int;
  pattern : Fkey.Pattern.t;
  priority : int;
  value : 'a;
}

type 'a t = {
  mutable rules : 'a rule list;  (* Sorted: priority desc, then id desc. *)
  cache : 'a option Fkey.Packed.Table.t;  (* packed keys: alloc-free probes *)
  mutable next_id : int;
  mutable fast_hits : int;
  mutable slow_lookups : int;
}

type rule_id = int

let create () =
  {
    rules = [];
    cache = Fkey.Packed.Table.create 256;
    next_id = 0;
    fast_hits = 0;
    slow_lookups = 0;
  }

let rule_before a b =
  a.priority > b.priority || (a.priority = b.priority && a.id > b.id)

let insert t ~pattern ~priority value =
  let id = t.next_id in
  t.next_id <- id + 1;
  let rule = { id; pattern; priority; value } in
  let rec place = function
    | [] -> [ rule ]
    | r :: rest as l -> if rule_before rule r then rule :: l else r :: place rest
  in
  t.rules <- place t.rules;
  Fkey.Packed.Table.clear t.cache;
  id

let remove t id =
  let found = List.exists (fun r -> r.id = id) t.rules in
  if found then begin
    t.rules <- List.filter (fun r -> r.id <> id) t.rules;
    Fkey.Packed.Table.clear t.cache
  end;
  found

let scan t key =
  let rec go = function
    | [] -> None
    | r :: rest -> if Fkey.Pattern.matches r.pattern key then Some r.value else go rest
  in
  go t.rules

let lookup_slow t key =
  t.slow_lookups <- t.slow_lookups + 1;
  scan t key

(* The per-packet path (the NIC flow placer calls this on every
   transmitted packet): a cache hit is one packed-key probe returning
   the stored option block as-is — no [Some] re-wrap, no [`Hit]
   variant, zero allocation. *)
let find t key flow =
  match Fkey.Packed.Table.find t.cache key with
  | cached ->
      t.fast_hits <- t.fast_hits + 1;
      cached
  | exception Not_found ->
      let result = lookup_slow t flow in
      Fkey.Packed.Table.replace t.cache key result;
      result

let lookup t key =
  let packed = Fkey.Packed.of_fkey key in
  match Fkey.Packed.Table.find_opt t.cache packed with
  | Some cached ->
      t.fast_hits <- t.fast_hits + 1;
      `Hit cached
  | None ->
      let result = lookup_slow t key in
      Fkey.Packed.Table.replace t.cache packed result;
      `Miss result

let rule_count t = List.length t.rules
let cache_size t = Fkey.Packed.Table.length t.cache
let fast_hits t = t.fast_hits
let slow_lookups t = t.slow_lookups

let fold_rules t ~init ~f =
  List.fold_left (fun acc r -> f acc r.id r.pattern r.priority r.value) init t.rules
