(* Tests for CPU pools and the calibrated cost model. *)

module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Cost = Compute.Cost_params

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

let test_pool_runs_jobs () =
  let engine = Engine.create () in
  let pool = Compute.Cpu_pool.create ~engine ~cpus:1 in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Compute.Cpu_pool.submit pool ~cost:(Simtime.span_us 10.0) (fun () ->
        done_at := Simtime.to_us (Engine.now engine) :: !done_at)
  done;
  Engine.run engine;
  (* Single server: strictly serialized completions. *)
  Alcotest.check (Alcotest.list (Alcotest.float 0.01)) "serialized"
    [ 10.0; 20.0; 30.0 ] (List.rev !done_at);
  checki "jobs" 3 (Compute.Cpu_pool.jobs_completed pool)

let test_pool_parallelism () =
  let engine = Engine.create () in
  let pool = Compute.Cpu_pool.create ~engine ~cpus:4 in
  let finished = ref 0.0 in
  for _ = 1 to 4 do
    Compute.Cpu_pool.submit pool ~cost:(Simtime.span_us 10.0) (fun () ->
        finished := Simtime.to_us (Engine.now engine))
  done;
  Engine.run engine;
  checkf "all in parallel" 10.0 !finished

let test_pool_fifo () =
  let engine = Engine.create () in
  let pool = Compute.Cpu_pool.create ~engine ~cpus:1 in
  let order = ref [] in
  List.iter
    (fun tag ->
      Compute.Cpu_pool.submit pool ~cost:(Simtime.span_us 1.0) (fun () ->
          order := tag :: !order))
    [ "a"; "b"; "c" ];
  Engine.run engine;
  Alcotest.check (Alcotest.list Alcotest.string) "fifo" [ "a"; "b"; "c" ]
    (List.rev !order)

let test_pool_accounting () =
  let engine = Engine.create () in
  let pool = Compute.Cpu_pool.create ~engine ~cpus:2 in
  for _ = 1 to 4 do
    Compute.Cpu_pool.submit pool ~cost:(Simtime.span_ms 1.0) (fun () -> ())
  done;
  Engine.run engine;
  checkf "busy seconds" 0.004 (Compute.Cpu_pool.busy_seconds pool);
  (* Over a 4 ms window: 4 ms busy on 2 CPUs for 2 ms wall = 1 CPU avg
     over the first 2 ms... over 4 ms window it is 1 CPU-second/sec. *)
  checkf "cpus used over 4ms" 1.0
    (Compute.Cpu_pool.cpus_used pool ~over:(Simtime.span_ms 4.0));
  checkf "utilization" 0.5
    (Compute.Cpu_pool.utilization pool ~over:(Simtime.span_ms 4.0));
  Compute.Cpu_pool.reset_accounting pool;
  checkf "reset" 0.0 (Compute.Cpu_pool.busy_seconds pool)

let test_pool_queue_introspection () =
  let engine = Engine.create () in
  let pool = Compute.Cpu_pool.create ~engine ~cpus:1 in
  for _ = 1 to 3 do
    Compute.Cpu_pool.submit pool ~cost:(Simtime.span_us 5.0) (fun () -> ())
  done;
  checki "one running" 1 (Compute.Cpu_pool.busy_cpus pool);
  checki "two waiting" 2 (Compute.Cpu_pool.queue_length pool);
  Engine.run engine;
  checki "drained" 0 (Compute.Cpu_pool.queue_length pool)

let test_run_inline () =
  let engine = Engine.create () in
  let pool = Compute.Cpu_pool.create ~engine ~cpus:1 in
  Compute.Cpu_pool.run_inline pool ~cost:(Simtime.span_ms 2.0);
  checkf "accounted without queueing" 0.002 (Compute.Cpu_pool.busy_seconds pool)

(* A saturated pool's run queue lives all run and is never empty, so
   anything it still references at a minor collection is promoted. A
   job that has run is garbage: nearly everything the jobs allocate
   must die young. *)
let test_pool_queue_promotes_little () =
  let engine = Engine.create () in
  let pool = Compute.Cpu_pool.create ~engine ~cpus:1 in
  let jobs = 100_000 and submitted = ref 0 in
  let rec submit () =
    if !submitted < jobs then begin
      incr submitted;
      Compute.Cpu_pool.submit pool ~cost:(Simtime.span_us 1.0) submit
    end
  in
  (* One job runs and two wait; each completion submits one more. *)
  Gc.minor ();
  let before = Gc.quick_stat () in
  for _ = 1 to 3 do submit () done;
  Engine.run engine;
  Gc.minor ();
  let after = Gc.quick_stat () in
  checki "jobs" jobs (Compute.Cpu_pool.jobs_completed pool);
  let minor = after.Gc.minor_words -. before.Gc.minor_words in
  let promoted = after.Gc.promoted_words -. before.Gc.promoted_words in
  if promoted >= 0.1 *. minor then
    Alcotest.failf "promoted %.0f of %.0f minor words" promoted minor

(* --- Cost params: structural sanity of the calibration --- *)

let test_units_tunneling_defeats_tso () =
  checki "baseline: one unit for 32000B" 1
    (Cost.units_for Cost.baseline ~bytes_len:32000);
  checki "tunneling: per-frame units" 22
    (Cost.units_for Cost.with_tunneling ~bytes_len:32000);
  checki "never zero" 1 (Cost.units_for Cost.baseline ~bytes_len:0)

let test_vhost_cost_ordering () =
  let us config =
    Simtime.span_to_us (Cost.vhost_serial_cost config ~unit_bytes:1448)
  in
  checkb "tunneling costs more" true (us Cost.with_tunneling > us Cost.baseline);
  checkb "rate limiting costs more" true
    (us Cost.with_rate_limiting > us Cost.baseline);
  checkb "combined costs most" true
    (us Cost.combined > us Cost.with_tunneling);
  (* Security-rule checking is O(1) in the kernel cache: barely above
     baseline (the paper's 10,000-rule result). *)
  checkb "security nearly free" true
    (us Cost.with_security -. us Cost.baseline < 0.5)

let test_guest_costs () =
  let tx = Simtime.span_to_us (Cost.guest_tx_cost ~bytes_len:64) in
  let tx_bulk = Simtime.span_to_us (Cost.guest_tx_cost_bulk ~bytes_len:64) in
  checkb "bulk tx cheaper (no wakeups)" true (tx_bulk < tx);
  let rx = Simtime.span_to_us (Cost.guest_rx_cost ~bytes_len:1448) in
  let rx_bulk = Simtime.span_to_us (Cost.guest_rx_cost_bulk ~bytes_len:1448) in
  checkb "GRO rx cheaper" true (rx_bulk < rx);
  (* The burst-TPS calibration: 16.6 us per transaction per endpoint. *)
  let per_txn =
    Simtime.span_to_us (Cost.guest_tx_cost ~bytes_len:64)
    +. Simtime.span_to_us (Cost.guest_rx_cost ~bytes_len:64)
  in
  checkb "~60K TPS ceiling" true (Float.abs ((1e6 /. per_txn) -. 60_000.0) < 4_000.0)

let test_vhost_burst_calibration () =
  (* Two vhost units per transaction -> ~34K TPS baseline ceiling. *)
  let per_unit =
    Simtime.span_to_us (Cost.vhost_serial_cost Cost.baseline ~unit_bytes:64)
  in
  let tps = 1e6 /. (2.0 *. per_unit) in
  checkb "~34-36K ceiling" true (tps > 32_000.0 && tps < 38_000.0)

let test_config_pp () =
  Alcotest.check Alcotest.string "baseline" "baseline"
    (Format.asprintf "%a" Cost.pp_config Cost.baseline);
  Alcotest.check Alcotest.string "combined" "ovs+tunneling+rate-limit"
    (Format.asprintf "%a" Cost.pp_config Cost.combined)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  [
    t "pool runs jobs serialized" test_pool_runs_jobs;
    t "pool parallelism" test_pool_parallelism;
    t "pool fifo" test_pool_fifo;
    t "pool accounting" test_pool_accounting;
    t "pool queue introspection" test_pool_queue_introspection;
    t "run_inline" test_run_inline;
    t "saturated pool promotes little" test_pool_queue_promotes_little;
    t "units: tunneling defeats TSO" test_units_tunneling_defeats_tso;
    t "vhost cost ordering" test_vhost_cost_ordering;
    t "guest costs" test_guest_costs;
    t "vhost burst calibration" test_vhost_burst_calibration;
    t "config printing" test_config_pp;
  ]
