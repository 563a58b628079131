type t = {
  shards : Engine.t array;
  mutable lookahead : Simtime.span option;
  (* Index of the executing shard, or -1: an index, not an [Engine.t
     option], so setting it per shard per window allocates nothing. *)
  mutable running : int;
  mutable stopping : bool;
  mutable windows : int;
  (* End of the last lockstep window started. After a mid-window stop,
     shards may sit at different clocks below this; the next [run]
     first completes the interrupted window so every shard is back on a
     common boundary before new windows open. *)
  mutable horizon : Simtime.t;
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
  {
    shards;
    lookahead = None;
    running = -1;
    stopping = false;
    windows = 0;
    horizon = Simtime.zero;
  }

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

let stop t =
  t.stopping <- true;
  if t.running >= 0 then Engine.stop t.shards.(t.running)

(* Run every shard in array order to the exclusive [window_end] — an
   idle shard too ends there — or, when the inclusive [limit] falls
   inside the window, under [Engine.run ~until]'s parking rule. [running]
   lets [stop] reach the executing shard. *)
let run_window t ~(window_end : Simtime.t) ~(limit : Simtime.t) =
  let final = (limit :> int) < (window_end :> int) in
  for i = 0 to Array.length t.shards - 1 do
    if not t.stopping then begin
      let e = t.shards.(i) in
      t.running <- i;
      if final then Engine.run ~until:limit e
      else Engine.run_window e ~until_exclusive:window_end;
      t.running <- -1
    end
  done

(* One shard: no cross-shard channel can exist, so no lookahead bound
   is needed and the cluster degenerates to the plain event loop — a
   single-rack run keeps its exact historical event schedule. *)
let run_single ?until t =
  t.running <- 0;
  Fun.protect
    ~finally:(fun () -> t.running <- -1)
    (fun () -> Engine.run ?until t.shards.(0))

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
  (* Complete a window a previous [stop] interrupted: within one window
     every send still lands at or after the horizon, so finishing it is
     safe and restores all shards to a common boundary. *)
  if
    Simtime.(t.horizon > Simtime.zero)
    && Array.exists (fun e -> Simtime.(Engine.now e < t.horizon)) t.shards
  then run_window t ~window_end:t.horizon ~limit:Simtime.never;
  let continue = ref true in
  while !continue && not t.stopping do
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
      t.horizon <- window_end;
      run_window t ~window_end ~limit;
      (* A fully executed window (partial or not) leaves every shard on
         a consistent boundary: nothing to complete on the next [run]. *)
      if not t.stopping then t.horizon <- Simtime.zero;
      if (limit :> int) < (window_end :> int) then continue := false
    end
  done

let run ?until t =
  t.stopping <- false;
  if Array.length t.shards = 1 then run_single ?until t
  else run_sharded ?until t
