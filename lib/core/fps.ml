type input = {
  demand_soft_bps : float;
  demand_hard_bps : float;
  soft_maxed : bool;
  hard_maxed : bool;
}

type split = { soft : Rules.Rate_limit_spec.t; hard : Rules.Rate_limit_spec.t }

let floor_fraction = 0.05
let maxed_boost = 1.25

let m_splits = Obs.Metrics.counter "fastrak.fps.splits"

(* Measured demands come from counters and subtraction; treat anything
   non-finite or negative as "no measurable demand" rather than letting
   it poison the share arithmetic. *)
let sanitize_demand d = if Float.is_finite d && d > 0.0 then d else 0.0

let split ~total_bps ~overflow_bps ~current input =
  Obs.Metrics.incr m_splits;
  if Float.is_nan total_bps then invalid_arg "Fps.split: total_bps is NaN";
  if total_bps = infinity then
    { soft = Rules.Rate_limit_spec.unlimited; hard = Rules.Rate_limit_spec.unlimited }
  else begin
    let current_limit side =
      match current with
      | None -> total_bps /. 2.0
      | Some c -> (
          match side with
          | `Soft -> c.soft.Rules.Rate_limit_spec.rate_bps
          | `Hard -> c.hard.Rules.Rate_limit_spec.rate_bps)
    in
    (* A maxed-out limiter hides true demand: the flows "max out the
       rate limit imposed. FPS uses this information to re-adjust".
       The boost only makes sense against a finite current limit: a
       side whose limit is [unlimited] ([rate_bps = infinity]) cannot
       meaningfully be "maxed", and boosting it would make both
       weights infinite and the share inf/inf = NaN. *)
    let weight maxed demand side =
      let demand = sanitize_demand demand in
      if maxed then begin
        let limit = current_limit side in
        if Float.is_finite limit && limit > 0.0 then
          Float.max demand (maxed_boost *. limit)
        else demand
      end
      else demand
    in
    let weight_soft = weight input.soft_maxed input.demand_soft_bps `Soft in
    let weight_hard = weight input.hard_maxed input.demand_hard_bps `Hard in
    let sum = weight_soft +. weight_hard in
    let share_soft = if sum <= 0.0 then 0.5 else weight_soft /. sum in
    let floor = floor_fraction in
    let share_soft = Float.min (1.0 -. floor) (Float.max floor share_soft) in
    let ls = share_soft *. total_bps in
    let lh = total_bps -. ls in
    let overflow = sanitize_demand overflow_bps in
    (* Postcondition: a finite total must split into finite,
       non-negative limits — a NaN or negative rate here would be
       silently installed into both paths' limiters. *)
    let checked side v =
      if Float.is_nan v || v < 0.0 then
        invalid_arg
          (Printf.sprintf "Fps.split: computed %s limit %g is not a rate" side v)
      else v
    in
    {
      soft = Rules.Rate_limit_spec.make ~rate_bps:(checked "soft" (ls +. overflow));
      hard = Rules.Rate_limit_spec.make ~rate_bps:(checked "hard" (lh +. overflow));
    }
  end
