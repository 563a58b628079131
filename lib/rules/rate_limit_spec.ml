type t = { rate_bps : float; burst_bytes : int }

let make ~rate_bps =
  let bytes_in_100ms = int_of_float (rate_bps /. 8.0 *. 0.1) in
  { rate_bps; burst_bytes = Stdlib.max Netcore.Hdr.mtu bytes_in_100ms }

let unlimited = { rate_bps = infinity; burst_bytes = max_int }
let gbps g = make ~rate_bps:(g *. 1e9)
let is_unlimited t = t.rate_bps = infinity

let pp ppf t =
  if is_unlimited t then Format.pp_print_string ppf "unlimited"
  else Format.fprintf ppf "%.2f Gb/s (burst %dB)" (t.rate_bps /. 1e9) t.burst_bytes
