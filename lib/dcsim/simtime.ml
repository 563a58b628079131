type t = int
type span = int

let zero = 0
let never = max_int
let of_ns ns = ns
let of_us us = int_of_float (us *. 1e3)
let of_ms ms = int_of_float (ms *. 1e6)
let of_sec s = int_of_float (s *. 1e9)
let to_ns t = t
let to_us t = float_of_int t /. 1e3
let to_ms t = float_of_int t /. 1e6
let to_sec t = float_of_int t /. 1e9
let add t span = t + span
let span_ns ns = ns
let span_us us = int_of_float (us *. 1e3)
let span_ms ms = int_of_float (ms *. 1e6)
let span_sec s = int_of_float (s *. 1e9)
let span_zero = 0
let span_add = ( + )
let span_sub = ( - )
let span_scale k span = int_of_float (k *. float_of_int span)
let span_max (a : span) b = Stdlib.max a b
let span_compare (a : span) (b : span) = Stdlib.compare a b
let span_to_ns s = s
let span_to_us s = float_of_int s /. 1e3
let span_to_sec s = float_of_int s /. 1e9

let span_of_bytes_at_rate ~bytes_len ~gbps =
  (* bits / (Gb/s) = ns; computed in float then rounded to the nearest
     nanosecond. *)
  let bits = 8.0 *. float_of_int bytes_len in
  int_of_float (bits /. gbps +. 0.5)

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
