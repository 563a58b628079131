module Simtime = Dcsim.Simtime

type vswitch_config = {
  security_rules : bool;
  tunneling : bool;
  rate_limiting : bool;
}

let baseline = { security_rules = false; tunneling = false; rate_limiting = false }
let with_security = { baseline with security_rules = true }
let with_tunneling = { baseline with tunneling = true }
let with_rate_limiting = { baseline with rate_limiting = true }
let combined = { baseline with tunneling = true; rate_limiting = true }

let pp_config ppf c =
  let tags =
    List.filter_map
      (fun (flag, tag) -> if flag then Some tag else None)
      [
        (c.security_rules, "security");
        (c.tunneling, "tunneling");
        (c.rate_limiting, "rate-limit");
      ]
  in
  match tags with
  | [] -> Format.pp_print_string ppf "baseline"
  | tags -> Format.pp_print_string ppf ("ovs+" ^ String.concat "+" tags)

(* Per-unit vhost costs, microseconds. Calibration (burst test, two
   units per transaction through each host's vhost, each wakeup batch
   holding a single flow): 2 x (13.7 + 0.3 lookup) -> 35.7K TPS ceiling
   (paper ~34K); likewise ~26K and ~31K for the tunneling and
   rate-limit paths. The flow-cache lookup is split out of the base
   cost so a vhost wakeup can amortise it across a batch: packets of
   the same flow in one batch share a single classification
   ([classify_lookup_us] is charged per distinct flow per batch, see
   lib/vswitch/ovs.ml). Security-rule checking itself is O(1) against
   the kernel cache and adds only a hair (the paper measured no
   difference with 10,000 rules installed). *)
let vhost_base_us = 13.7
let classify_lookup_us = 0.3
let vhost_security_us = 0.2
let vhost_tunnel_us = 5.0
let vhost_htb_us = 2.0
let vhost_per_byte_ns = 0.08

let vhost_serial_cost config ~unit_bytes =
  let us =
    vhost_base_us
    +. (if config.security_rules then vhost_security_us else 0.0)
    +. (if config.tunneling then vhost_tunnel_us else 0.0)
    +. (if config.rate_limiting then vhost_htb_us else 0.0)
    +. (vhost_per_byte_ns *. float_of_int unit_bytes /. 1000.0)
  in
  Simtime.span_us us

let vhost_stream_batching = 3.4

(* Parallelisable softirq work: skb allocation, checksums, the data copy
   (~0.25 ns/B ~ 4 GB/s effective touch rate), plus VXLAN encap/decap
   work on the tunneling path. *)
let softirq_base_us = 3.0
let softirq_tunnel_us = 4.0
let softirq_htb_us = 1.0
let softirq_per_byte_ns = 0.25

let softirq_cost config ~unit_bytes =
  let us =
    softirq_base_us
    +. (if config.tunneling then softirq_tunnel_us else 0.0)
    +. (if config.rate_limiting then softirq_htb_us else 0.0)
    +. (softirq_per_byte_ns *. float_of_int unit_bytes /. 1000.0)
  in
  Simtime.span_us us

let host_kernel_cpus = 8

let tso_unit = 65536

let units_for config ~bytes_len =
  let bytes_len = Stdlib.max 1 bytes_len in
  if config.tunneling then
    (* VXLAN defeats NIC TSO/LRO: segmentation in software, one unit per
       wire frame. *)
    Netcore.Hdr.frames ~payload:bytes_len
  else (bytes_len + tso_unit - 1) / tso_unit

(* Guest stack: serialized on the VM's kernel vCPU. Calibration: one
   transaction costs rx 10.0 + tx 6.6 = 16.6 us at each endpoint VM,
   giving the ~60K TPS SR-IOV burst ceiling. *)
let guest_tx_us = 6.6
let guest_rx_us = 10.0
let guest_per_byte_ns = 0.15

let guest_tx_cost ~bytes_len =
  Simtime.span_us (guest_tx_us +. (guest_per_byte_ns *. float_of_int bytes_len /. 1000.0))

let guest_rx_cost ~bytes_len =
  Simtime.span_us (guest_rx_us +. (guest_per_byte_ns *. float_of_int bytes_len /. 1000.0))

let guest_tx_bulk_us = 1.5

let guest_tx_cost_bulk ~bytes_len =
  Simtime.span_us
    (guest_tx_bulk_us +. (guest_per_byte_ns *. float_of_int bytes_len /. 1000.0))

(* GRO/LRO: the 10 us receive path runs once per tso_unit of aggregated
   data; a message smaller than the unit pays its prorated share, with
   a floor for the per-descriptor work that cannot be amortised. *)
let guest_rx_cost_bulk ~bytes_len =
  let fraction =
    Float.max 0.03 (Float.min 1.0 (float_of_int bytes_len /. float_of_int tso_unit))
  in
  Simtime.span_us
    ((guest_rx_us *. fraction)
    +. (guest_per_byte_ns *. float_of_int bytes_len /. 1000.0))

let guest_rx_wakeup_jitter_mean = Simtime.span_us 2.0

let vf_rx_host_interrupt_cost = Simtime.span_us 0.5
let nic_fixed_latency = Simtime.span_us 0.8

let link_gbps = 10.0
let wire_overhead_per_frame = 20
let tor_forward_latency = Simtime.span_us 1.0
let tor_vrf_latency = Simtime.span_ns 350
let server_app_default_cost = Simtime.span_us 2.0
