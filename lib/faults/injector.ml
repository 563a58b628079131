module Simtime = Dcsim.Simtime
module Rng = Dcsim.Rng

type armed_trigger = { fire_at : Simtime.t; mutable left : int }

type t = {
  sched : Schedule.t;
  rng : Rng.t;
  triggers : armed_trigger list;
  mutable dropped : int;
}

type verdict =
  | Deliver of {
      extra_delay : Simtime.span;
      in_order : bool;
      duplicate_delay : Simtime.span option;
    }
  | Drop

let create ~schedule ~rng =
  {
    sched = schedule;
    rng;
    triggers =
      List.map
        (fun (tr : Schedule.trigger) ->
          { fire_at = tr.Schedule.fire_at; left = tr.Schedule.drop_next })
        schedule.Schedule.triggers;
    dropped = 0;
  }

let in_window t now =
  List.exists
    (fun (w : Schedule.window) ->
      Simtime.(w.Schedule.down_from <= now) && Simtime.(now < w.Schedule.down_until))
    t.sched.Schedule.windows

let trigger_fires t now =
  match
    List.find_opt
      (fun tr -> tr.left > 0 && Simtime.(tr.fire_at <= now))
      t.triggers
  with
  | Some tr ->
      tr.left <- tr.left - 1;
      true
  | None -> false

let draw_prob t p = p > 0.0 && Rng.float t.rng 1.0 < p

let decide t ~now =
  if in_window t now || trigger_fires t now then begin
    t.dropped <- t.dropped + 1;
    Drop
  end
  else if draw_prob t t.sched.Schedule.drop then begin
    t.dropped <- t.dropped + 1;
    Drop
  end
  else begin
    let jitter = t.sched.Schedule.jitter in
    let draw_jitter () =
      if Simtime.span_to_ns jitter = 0 then Simtime.span_zero
      else Rng.uniform_span t.rng jitter
    in
    let duplicate_delay =
      if draw_prob t t.sched.Schedule.duplicate then Some (draw_jitter ()) else None
    in
    let in_order = not (draw_prob t t.sched.Schedule.reorder) in
    Deliver { extra_delay = draw_jitter (); in_order; duplicate_delay }
  end

let drops t = t.dropped
