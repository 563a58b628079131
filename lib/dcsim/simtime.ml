type t = int
type span = int

let zero = 0
let never = max_int

(* Every float-to-time conversion is checked: NaN, the infinities and
   magnitudes of 2^62 ns or more have no [int] count, and [int_of_float]
   would silently turn them into 0 or a wrapped value. The conversions
   are forced inline, as the unchecked one-liners were inlined by size,
   and [checked] binds no float in a [let]: so [span_us 2.0] still folds
   to a constant where it is used. A let-bound float does not fold, and
   a caller passing the unfolded value on as a float boxes it. *)
let[@inline never] out_of_range name x ns =
  invalid_arg
    (Printf.sprintf "Simtime.%s %g: %g ns is not a finite time under 2^62 ns"
       name x ns)

let[@inline] checked name x scale =
  if Float.abs (x *. scale) < 0x1p62 then int_of_float (x *. scale)
  else out_of_range name x (x *. scale)

let of_ns ns = ns
let[@inline] of_us us = checked "of_us" us 1e3
let[@inline] of_ms ms = checked "of_ms" ms 1e6
let[@inline] of_sec s = checked "of_sec" s 1e9
let to_ns t = t
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9
let add t span = t + span
let span_ns ns = ns
let[@inline] span_us us = checked "span_us" us 1e3
let[@inline] span_ms ms = checked "span_ms" ms 1e6
let[@inline] span_sec s = checked "span_sec" s 1e9
let span_zero = 0
let span_add = ( + )
let span_sub = ( - )
let[@inline] span_scale k span = checked "span_scale" k (float_of_int span)
let span_max (a : span) b = Stdlib.max a b
let span_compare (a : span) (b : span) = Stdlib.compare a b
let span_to_ns s = s
let span_to_us s = float_of_int s /. 1e3
let span_to_sec s = float_of_int s /. 1e9

let[@inline] span_of_bytes_at_rate ~bytes_len ~gbps =
  (* bits / (Gb/s) = ns; computed in float then rounded to the nearest
     nanosecond. *)
  let ns = (8.0 *. float_of_int bytes_len /. gbps) +. 0.5 in
  if Float.abs ns < 0x1p62 then int_of_float ns
  else out_of_range "span_of_bytes_at_rate" gbps ns

let diff later earlier = later - earlier
let compare (a : t) (b : t) = Stdlib.compare a b
let ( <= ) (a : t) (b : t) = a <= b
let ( < ) (a : t) (b : t) = a < b
let ( >= ) (a : t) (b : t) = a >= b
let ( > ) (a : t) (b : t) = a > b
let max (a : t) (b : t) = Stdlib.max a b

let pp ppf t =
  if t >= 1_000_000_000 then Format.fprintf ppf "%.3fs" (to_sec t)
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else if t >= 1_000 then Format.fprintf ppf "%.1fus" (to_us t)
  else Format.fprintf ppf "%dns" t

let pp_span = pp
