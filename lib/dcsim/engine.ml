type t = {
  mutable clock : Simtime.t;
  queue : (unit -> unit) Event_queue.t;
  rng : Rng.t;
  mutable stopping : bool;
  mutable processed : int;
}

type handle = Event_queue.handle

let create ?(seed = 42) () =
  {
    clock = Simtime.zero;
    queue = Event_queue.create ();
    rng = Rng.create ~seed;
    stopping = false;
    processed = 0;
  }

let now t = t.clock
let rng t = t.rng

let at t (time : Simtime.t) fn =
  if (time :> int) < (t.clock :> int) then
    invalid_arg
      (Format.asprintf "Engine.at: %a is before current time %a" Simtime.pp
         time Simtime.pp t.clock);
  (* [never] is the queue's "empty" sentinel: an event there never fires. *)
  if time = Simtime.never then invalid_arg "Engine.at: Simtime.never";
  Event_queue.push t.queue time fn

let after t span fn =
  let time = Simtime.add t.clock span in
  if (span :> int) > 0 && (time :> int) < (t.clock :> int) then
    invalid_arg (Format.asprintf "Engine.after: %a + %a overflows Simtime"
                   Simtime.pp t.clock Simtime.pp_span span);
  at t time fn

let cancel t handle = Event_queue.cancel t.queue handle

let every t ?start span fn =
  let first = match start with Some s -> s | None -> Simtime.add t.clock span in
  (* Clamp to now so a periodic task can be started from inside an event
     at (or before) the current instant without tripping [at]'s guard. *)
  let first = Simtime.max first t.clock in
  let rec tick () =
    match fn () with
    | `Stop -> ()
    | `Continue -> ignore (after t span tick)
  in
  ignore (at t first tick)

let advance_clock t (time : Simtime.t) =
  if (t.clock :> int) < (time :> int) then t.clock <- time

(* The one event loop behind every entry point: fire events while the
   earliest is strictly before [bound] and no [stop] is pending.
   Nothing here allocates, and neither does the queue. *)
let rec fire_before t bound =
  if not t.stopping then begin
    let time = Event_queue.min_time t.queue in
    if (time :> int) < bound then begin
      let fn = Event_queue.pop_min t.queue in
      t.clock <- time;
      t.processed <- t.processed + 1;
      fn ();
      fire_before t bound
    end
  end

let run ?until t =
  t.stopping <- false;
  match until with
  | None -> fire_before t (Simtime.never :> int)
  | Some (limit : Simtime.t) ->
      fire_before t ((limit :> int) + 1);
      (* Park at the limit only while a later event is still queued: a
         queue that drained early leaves the clock on its last event.
         Never park backwards, or [at] would accept the past. *)
      if (not t.stopping) && not (Event_queue.is_empty t.queue) then
        advance_clock t limit

let run_window t ~(until_exclusive : Simtime.t) =
  t.stopping <- false;
  fire_before t (until_exclusive :> int);
  (* Leave the clock at the window boundary so a cross-shard injection
     landing exactly on the boundary (the earliest instant the lookahead
     invariant allows) still satisfies [at]'s not-in-the-past guard. *)
  if not t.stopping then advance_clock t until_exclusive

let min_time t = Event_queue.min_time t.queue
let pending_events t = Event_queue.length t.queue

let stop t = t.stopping <- true
let events_processed t = t.processed
