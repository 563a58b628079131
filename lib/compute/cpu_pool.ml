module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fifo = Dcsim.Fifo

type job = { cost : Simtime.span; continuation : unit -> unit }

type t = {
  engine : Engine.t;
  total_cpus : int;
  mutable free_cpus : int;
  waiting : job Fifo.t;
  mutable busy_ns : int;
  mutable completed : int;
}

let create ~engine ~cpus =
  if cpus <= 0 then invalid_arg "Cpu_pool.create: cpus must be positive";
  {
    engine;
    total_cpus = cpus;
    free_cpus = cpus;
    waiting = Fifo.create ();
    busy_ns = 0;
    completed = 0;
  }

let rec start_job t job =
  t.free_cpus <- t.free_cpus - 1;
  ignore
    (Engine.after t.engine job.cost (fun () ->
         t.busy_ns <- t.busy_ns + Simtime.span_to_ns job.cost;
         t.completed <- t.completed + 1;
         t.free_cpus <- t.free_cpus + 1;
         job.continuation ();
         dispatch t))

and dispatch t =
  if t.free_cpus > 0 && not (Fifo.is_empty t.waiting) then begin
    let job = Fifo.pop t.waiting in
    start_job t job
  end

let submit t ~cost continuation =
  let job = { cost; continuation } in
  if t.free_cpus > 0 && Fifo.is_empty t.waiting then start_job t job
  else Fifo.push t.waiting job

let run_inline t ~cost = t.busy_ns <- t.busy_ns + Simtime.span_to_ns cost
let busy_seconds t = float_of_int t.busy_ns /. 1e9

let utilization t ~over =
  let window = Simtime.span_to_sec over in
  if window <= 0.0 then 0.0
  else busy_seconds t /. (float_of_int t.total_cpus *. window)

let cpus_used t ~over =
  let window = Simtime.span_to_sec over in
  if window <= 0.0 then 0.0 else busy_seconds t /. window

let queue_length t = Fifo.length t.waiting
let busy_cpus t = t.total_cpus - t.free_cpus
let jobs_completed t = t.completed
let reset_accounting t = t.busy_ns <- 0
