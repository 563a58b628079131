module Simtime = Dcsim.Simtime

type t = {
  mutable spec : Rules.Rate_limit_spec.t;
  mutable tokens : float;  (* bytes *)
  mutable last_refill : Simtime.t;
}

let create spec ~now =
  { spec; tokens = float_of_int spec.Rules.Rate_limit_spec.burst_bytes; last_refill = now }

let spec t = t.spec

let refill t ~now =
  let elapsed = Simtime.span_to_sec (Simtime.diff now t.last_refill) in
  t.last_refill <- now;
  if Rules.Rate_limit_spec.is_unlimited t.spec then
    t.tokens <- float_of_int t.spec.burst_bytes
  else begin
    let added = t.spec.rate_bps /. 8.0 *. elapsed in
    t.tokens <- Float.min (t.tokens +. added) (float_of_int t.spec.burst_bytes)
  end

let set_spec t spec ~now =
  let was_unlimited = Rules.Rate_limit_spec.is_unlimited t.spec in
  refill t ~now;
  t.spec <- spec;
  if was_unlimited && not (Rules.Rate_limit_spec.is_unlimited spec) then
    (* The token count of an unlimited bucket is an artifact (refill pins
       it to the old burst, i.e. max_int): carrying it over would hand the
       flow a full free burst on every unlimited->limited transition.
       Start the limited bucket empty and let it earn credit at the new
       rate. *)
    t.tokens <- 0.0
  else
    t.tokens <- Float.min t.tokens (float_of_int spec.Rules.Rate_limit_spec.burst_bytes)

let available t ~now =
  refill t ~now;
  t.tokens

let try_consume t ~now ~bytes_len =
  if Rules.Rate_limit_spec.is_unlimited t.spec then true
  else begin
    refill t ~now;
    let need = float_of_int bytes_len in
    if t.tokens >= need then begin
      t.tokens <- t.tokens -. need;
      true
    end
    else false
  end

let time_until_conform t ~now ~bytes_len =
  if Rules.Rate_limit_spec.is_unlimited t.spec then Simtime.span_zero
  else begin
    refill t ~now;
    let deficit = float_of_int bytes_len -. t.tokens in
    if deficit <= 0.0 then Simtime.span_zero
    else Simtime.span_sec (deficit *. 8.0 /. t.spec.rate_bps)
  end
