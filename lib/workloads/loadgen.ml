module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine

(* ---------- diurnal rate curves ---------- *)

type curve =
  | Flat
  | Sinusoid of { trough : float }
  | Piecewise of float array

let curve_multiplier curve ~frac =
  let x = frac -. Float.of_int (int_of_float (Float.floor frac)) in
  match curve with
  | Flat -> 1.0
  | Sinusoid { trough } ->
      if trough < 0.0 || trough > 1.0 then
        invalid_arg "Loadgen: sinusoid trough must be in [0,1]";
      1.0 +. ((1.0 -. trough) *. sin (2.0 *. Float.pi *. x))
  | Piecewise segs ->
      let n = Array.length segs in
      if n = 0 then invalid_arg "Loadgen: empty piecewise curve";
      let sum = Array.fold_left ( +. ) 0.0 segs in
      if sum <= 0.0 then invalid_arg "Loadgen: piecewise curve sums to zero";
      (* Normalized so the curve's mean is 1: a day of modulated load
         offers exactly the configured daily volume. *)
      let i = Stdlib.min (n - 1) (int_of_float (x *. float_of_int n)) in
      segs.(i) *. float_of_int n /. sum

let curve_peak = function
  | Flat -> 1.0
  | Sinusoid { trough } -> 2.0 -. trough
  | Piecewise segs ->
      let n = Array.length segs in
      if n = 0 then invalid_arg "Loadgen: empty piecewise curve";
      let sum = Array.fold_left ( +. ) 0.0 segs in
      let hi = Array.fold_left Stdlib.max neg_infinity segs in
      hi *. float_of_int n /. sum

(* ---------- configuration ---------- *)

type incast = {
  victims : Flowgen.t array;
  victim_port : int;
  fanin : int;
  period : Simtime.span;
  burst_bytes : int;
}

type churn_hooks = { arrive : unit -> unit; depart : unit -> unit }

type config = {
  base_rate : float;
  day : Simtime.span;
  curve : curve;
  on_mean : Simtime.span;
  off_mean : Simtime.span;
  churn_period : Simtime.span option;
  stats_interval : Simtime.span;
}

let default_config =
  {
    base_rate = 1000.0;
    day = Simtime.span_sec 10.0;
    curve = Sinusoid { trough = 0.3 };
    on_mean = Simtime.span_ms 500.0;
    off_mean = Simtime.span_ms 100.0;
    churn_period = None;
    stats_interval = Simtime.span_ms 100.0;
  }

(* ---------- orchestrator ---------- *)

type t = {
  engine : Engine.t;
  config : config;
  gens : Flowgen.t array;
  sources_on : Bytes.t;
  rng : Dcsim.Rng.t;
  series_live : Obs.Timeseries.series;
  series_rate : Obs.Timeseries.series;
  collector : Obs.Timeseries.t;
  mutable started_at : Simtime.t;
  mutable arrivals : int;
  mutable thinned : int;
  mutable gated_off : int;
  mutable incast_events : int;
  mutable churn_arrivals : int;
  mutable churn_departures : int;
  mutable window_arrivals : int;
  mutable running : bool;
}

let source_on t i = Char.code (Bytes.get t.sources_on (i / 8)) land (1 lsl (i mod 8)) <> 0

let set_source t i v =
  let b = Char.code (Bytes.get t.sources_on (i / 8)) in
  let mask = 1 lsl (i mod 8) in
  Bytes.set t.sources_on (i / 8)
    (Char.chr (if v then b lor mask else b land lnot mask))

let day_frac t =
  let elapsed = Simtime.diff (Engine.now t.engine) t.started_at in
  Simtime.span_to_sec elapsed /. Simtime.span_to_sec t.config.day

(* Each source flips between exponential ON and OFF residencies —
   application-level burstiness on top of the Poisson arrivals. *)
let start_onoff t i =
  let rec flip on =
    if t.running then begin
      set_source t i on;
      let mean =
        Simtime.span_to_sec (if on then t.config.on_mean else t.config.off_mean)
      in
      let dwell = Dcsim.Rng.exponential t.rng ~mean in
      ignore
        (Engine.after t.engine (Simtime.span_sec dwell) (fun () -> flip (not on)))
    end
  in
  flip true

(* Nonhomogeneous Poisson by thinning: candidates arrive at the peak
   rate; each is accepted with probability curve(now)/peak. O(1) per
   candidate, no rate table, exact for any curve. *)
let start_arrivals t =
  let peak = curve_peak t.config.curve in
  let candidate_mean = 1.0 /. (t.config.base_rate *. peak) in
  let rec next () =
    if t.running then begin
      let gap = Dcsim.Rng.exponential t.rng ~mean:candidate_mean in
      ignore
        (Engine.after t.engine (Simtime.span_sec gap) (fun () ->
             if t.running then begin
               let m = curve_multiplier t.config.curve ~frac:(day_frac t) in
               if Dcsim.Rng.float t.rng 1.0 < m /. peak then begin
                 let i = Dcsim.Rng.int t.rng (Array.length t.gens) in
                 if source_on t i then begin
                   t.arrivals <- t.arrivals + 1;
                   t.window_arrivals <- t.window_arrivals + 1;
                   Flowgen.launch t.gens.(i)
                 end
                 else t.gated_off <- t.gated_off + 1
               end
               else t.thinned <- t.thinned + 1;
               next ()
             end))
    end
  in
  next ()

let start_incast t inc =
  if inc.fanin <= 0 || Array.length inc.victims = 0 then ()
  else
    Engine.every t.engine inc.period (fun () ->
        if t.running then begin
          t.incast_events <- t.incast_events + 1;
          let n = Stdlib.min inc.fanin (Array.length inc.victims) in
          for i = 0 to n - 1 do
            Flowgen.launch_to inc.victims.(i) ~dst_port:inc.victim_port
              ~size_bytes:inc.burst_bytes
          done;
          `Continue
        end
        else `Stop)

let start_churn t hooks period =
  let mean = Simtime.span_to_sec period in
  let rec next arrive_next =
    if t.running then begin
      let gap = Dcsim.Rng.exponential t.rng ~mean in
      ignore
        (Engine.after t.engine (Simtime.span_sec gap) (fun () ->
             if t.running then begin
               if arrive_next then begin
                 t.churn_arrivals <- t.churn_arrivals + 1;
                 hooks.arrive ()
               end
               else begin
                 t.churn_departures <- t.churn_departures + 1;
                 hooks.depart ()
               end;
               next (not arrive_next)
             end))
    end
  in
  next true

let live_flows t =
  Array.fold_left (fun acc g -> acc + Flowgen.live_flows g) 0 t.gens

let start_stats t =
  Engine.every t.engine t.config.stats_interval (fun () ->
      if t.running then begin
        Obs.Timeseries.observe t.series_live (float_of_int (live_flows t));
        let secs = Simtime.span_to_sec t.config.stats_interval in
        Obs.Timeseries.observe t.series_rate
          (float_of_int t.window_arrivals /. secs);
        t.window_arrivals <- 0;
        `Continue
      end
      else `Stop)

let start ~engine ?incast ?churn ~gens config =
  if Array.length gens = 0 then invalid_arg "Loadgen.start: no generators";
  (* A private collector: aggregate state is three P² estimator sets,
     O(1) regardless of how many flows the run has launched. *)
  let collector = Obs.Timeseries.create () in
  Obs.Timeseries.enable ~collector ();
  let t =
    {
      engine;
      config;
      gens;
      sources_on = Bytes.make ((Array.length gens + 7) / 8) '\000';
      rng = Dcsim.Rng.split (Engine.rng engine) "loadgen";
      series_live = Obs.Timeseries.series ~collector "workloads.live_flows";
      series_rate = Obs.Timeseries.series ~collector "workloads.arrival_rate";
      collector;
      started_at = Engine.now engine;
      arrivals = 0;
      thinned = 0;
      gated_off = 0;
      incast_events = 0;
      churn_arrivals = 0;
      churn_departures = 0;
      window_arrivals = 0;
      running = true;
    }
  in
  for i = 0 to Array.length gens - 1 do
    start_onoff t i
  done;
  start_arrivals t;
  (match incast with Some inc -> start_incast t inc | None -> ());
  (match (churn, config.churn_period) with
  | Some hooks, Some period -> start_churn t hooks period
  | _ -> ());
  start_stats t;
  t

let stop t =
  t.running <- false;
  Array.iter Flowgen.stop t.gens

type stats = {
  arrivals : int;
  thinned : int;
  gated_off : int;
  incast_events : int;
  churn_arrivals : int;
  churn_departures : int;
  live : int;
  flows_completed : int;
  flows_skipped : int;
  bytes_offered : int;
  live_q : Obs.Timeseries.quantiles;
  rate_q : Obs.Timeseries.quantiles;
}

let stats (t : t) : stats =
  {
    arrivals = t.arrivals;
    thinned = t.thinned;
    gated_off = t.gated_off;
    incast_events = t.incast_events;
    churn_arrivals = t.churn_arrivals;
    churn_departures = t.churn_departures;
    live = live_flows t;
    flows_completed =
      Array.fold_left (fun acc g -> acc + Flowgen.flows_completed g) 0 t.gens;
    flows_skipped =
      Array.fold_left (fun acc g -> acc + Flowgen.flows_skipped g) 0 t.gens;
    bytes_offered =
      Array.fold_left (fun acc g -> acc + Flowgen.bytes_offered g) 0 t.gens;
    live_q = Obs.Timeseries.quantiles t.series_live;
    rate_q = Obs.Timeseries.quantiles t.series_rate;
  }

let arrivals (t : t) = t.arrivals

let state_words t =
  (* Generator-owned bookkeeping only: port bitsets, the on/off gate
     bits and the P² estimators — everything the orchestrator keeps
     per aggregate. The engine's in-flight events model the network
     itself and are excluded; nothing here grows with the number of
     flows launched or live. *)
  let ports =
    Array.fold_left (fun acc g -> acc + Flowgen.state_words g) 0 t.gens
  in
  ports
  + Obj.reachable_words (Obj.repr t.sources_on)
  + Obj.reachable_words (Obj.repr (Obs.Timeseries.quantiles t.series_live))
  + Obj.reachable_words (Obj.repr (Obs.Timeseries.quantiles t.series_rate))
