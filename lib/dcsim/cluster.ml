type t = {
  shards : Engine.t array;
  mutable lookahead : Simtime.span option;
  mutable windows : int;
}

let create ~shards =
  if Array.length shards = 0 then invalid_arg "Cluster.create: no shards";
  Array.iteri
    (fun i e ->
      Array.iteri
        (fun j e' ->
          if i < j && e == e' then
            invalid_arg "Cluster.create: duplicate shard engine")
        shards;
      ignore e)
    shards;
  { shards; lookahead = None; windows = 0 }

let shard_count t = Array.length t.shards

let constrain_lookahead t span =
  if Simtime.span_to_ns span <= 0 then
    invalid_arg "Cluster.constrain_lookahead: lookahead must be positive";
  t.lookahead <-
    Some
      (match t.lookahead with
      | None -> span
      | Some l -> if Simtime.span_compare span l < 0 then span else l)

let lookahead t = t.lookahead

(* Earliest pending event over all shards, [Simtime.never] if none. *)
let min_time t =
  let m = ref Simtime.never in
  for i = 0 to Array.length t.shards - 1 do
    let x = Engine.min_time t.shards.(i) in
    if (x :> int) < (!m :> int) then m := x
  done;
  !m

let events_processed t =
  Array.fold_left (fun acc e -> acc + Engine.events_processed e) 0 t.shards

let windows_run t = t.windows

(* Run every shard in array order to the exclusive [window_end] — an
   idle shard too ends there — or, when the inclusive [limit] falls
   inside the window, under [Engine.run ~until]'s parking rule. *)
let run_window t ~(window_end : Simtime.t) ~(limit : Simtime.t) =
  let final = (limit :> int) < (window_end :> int) in
  for i = 0 to Array.length t.shards - 1 do
    let e = t.shards.(i) in
    if final then Engine.run ~until:limit e
    else Engine.run_window e ~until_exclusive:window_end
  done

let run_sharded ?until t =
  let lookahead =
    match t.lookahead with
    | Some l -> l
    | None ->
        invalid_arg
          "Cluster.run: no channel registered a lookahead bound (create the \
           cross-shard Fabric.Channels with ~cluster)"
  in
  let limit = Option.value until ~default:Simtime.never in
  let continue = ref true in
  while !continue do
    let start = min_time t in
    if (start :> int) = (Simtime.never :> int) then continue := false
    else if (start :> int) > (limit :> int) then begin
      (* Every pending event lies beyond the horizon: park all clocks
         at the limit, as [Engine.run ~until] would. *)
      Array.iter (fun e -> Engine.advance_clock e limit) t.shards;
      continue := false
    end
    else begin
      let window_end = Simtime.add start lookahead in
      t.windows <- t.windows + 1;
      run_window t ~window_end ~limit;
      if (limit :> int) < (window_end :> int) then continue := false
    end
  done

(* One shard: no cross-shard channel can exist, so no lookahead bound
   is needed and the cluster degenerates to the plain event loop — a
   single-rack run keeps its exact historical event schedule. *)
let run ?until t =
  if Array.length t.shards = 1 then Engine.run ?until t.shards.(0)
  else run_sharded ?until t
