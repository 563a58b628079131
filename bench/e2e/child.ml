(* One measurement in a fresh process. Experiments mutate process-global
   state (Memcached_eval.requests_scale, the metrics registry, packet
   uids), and peak RSS must belong to one run, so every measurement is
   its own child.

   The child sets up, times the call into the workload's entry point,
   prints the experiment's own report on stdout, then [marker] and one
   "name value" line per measurement. *)

let marker = "#e2e-measurements"

(* Counters read around the timed call, by their docs/METRICS.md names. *)
let counters =
  [
    "tor.forwarded"; "tor.vrf.installs"; "tor.acl_drops"; "vswitch.tx_packets";
    "vswitch.upcalls"; "nic.vf_tx_packets"; "fabric.core.routed";
    "fabric.channel.drops"; "fastrak.decide.calls"; "fastrak.me.epochs";
    "fastrak.promotions"; "fastrak.audit.sweeps";
  ]

let cache_counters =
  [ "vswitch.cache.exact_hits"; "vswitch.cache.megaflow_hits"; "vswitch.cache.misses" ]

let counter name =
  match Obs.Metrics.find name with
  | Some (Obs.Metrics.Counter_v n) -> n
  | _ -> 0

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.0
            | None -> scan ())
      in
      scan ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let run (w : Workload.t) ~size ~seed ~spawned_at ~profile =
  let call = w.prepare ~size ~seed in
  let names = counters @ cache_counters in
  let before = List.map counter names in
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let cpu0 = cpu_s () in
  if profile then Sampler.start ();
  let t_call = Unix.gettimeofday () in
  let outcome = call () in
  let wall = Unix.gettimeofday () -. t_call in
  if profile then Sampler.stop ();
  let cpu = cpu_s () -. cpu0 in
  let minor = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let moved = List.map2 (fun n b -> (n, counter n - b)) names before in
  let rss = peak_rss_mb () in
  outcome.Workload.report ();
  print_endline marker;
  let put name v = Printf.printf "%s %.17g\n" name v in
  put "wall_s" wall;
  put "setup_s" (t_call -. spawned_at);
  put "peak_rss_mb" rss;
  put "cpu_s" cpu;
  put "gc.minor_mwords" (minor /. 1e6);
  put "gc.major_collections" (float_of_int major);
  List.iter (fun n -> put n (float_of_int (List.assoc n moved))) counters;
  let hits =
    List.assoc "vswitch.cache.exact_hits" moved
    + List.assoc "vswitch.cache.megaflow_hits" moved
  in
  let lookups = hits + List.assoc "vswitch.cache.misses" moved in
  if lookups > 0 then
    put "vswitch.cache.hit_ratio" (float_of_int hits /. float_of_int lookups);
  List.iter (fun (n, v) -> put n v) outcome.counts;
  if profile then
    List.iter
      (fun (layer, k) -> put ("samples." ^ layer) (float_of_int k))
      (Sampler.layer_samples ());
  match outcome.broken with
  | None -> exit 0
  | Some why ->
      prerr_endline why;
      exit 2
