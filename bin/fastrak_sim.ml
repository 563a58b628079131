(* fastrak_sim: command-line driver for the reproduction experiments.

   fastrak_sim list
   fastrak_sim run fig3 table4 ...        (any subset)
   fastrak_sim run all --scale 0.05       (scaled finish-time runs)
   fastrak_sim run table4 --trace t.jsonl --metrics-out m.json

   The `ablation` experiment prints three sub-reports: the scoring
   policy comparison, the TCAM budget sweep, and the control-interval
   sweep. --scale shrinks the finish-time workloads (tables 2-4) to a
   fraction of the paper's 2M requests per client; finish times are
   normalised back, so absolute TPS/latency numbers are unaffected but
   very small fractions coarsen the tail. --trace streams the control
   plane's structured events (promotions, demotions, TCAM churn, FPS
   splits) as JSONL; --metrics-out dumps the metrics registry with
   per-experiment deltas. See docs/METRICS.md for both formats. *)

open Cmdliner

let experiments =
  [
    ("fig3", "Figure 3: baseline network performance microbenchmarks");
    ("fig4", "Figure 4: CPU overheads");
    ("fig5", "Figure 5: combined functionality");
    ("table1", "Table 1: memcached TPS, with/without background");
    ("table2", "Table 2: finish times vs %VIF");
    ("table3", "Table 3: finish times with scp background");
    ("table4", "Table 4: FasTrak end-to-end");
    ("fig12", "Figure 12: TCP progression across flow migration");
    ( "ablation",
      "Ablations, three sub-reports: scoring policy, TCAM budget sweep, \
       control-interval sweep" );
    ( "chaos",
      "Control plane under injected faults (lossy channels, retries, \
       dead-peer demotion); schedule from --faults" );
    ( "dcscale",
      "Multi-rack sharded engine: cross-rack express lanes, inter-rack \
       VM migration, sharded vs single-engine; rack count from --racks" );
    ( "fabric-chaos",
      "Data-plane failure domains: express-lane outages, TCAM faults, \
       controller crash/restart; schedule from --faults, rack count \
       from --racks (default 4)" );
    ( "soak",
      "Production-shaped load soak: heavy-tailed flows, diurnal arrivals, \
       incast, tenant churn across 2+ racks; shaped by --workload, \
       --duration, --churn-rate, --racks (default 2)" );
  ]

(* [Simtime.span_sec] rounds anything under 1 ns to 0 and wraps a
   larger-than-[Simtime.never] or non-finite float (infinity and NaN
   become 0) instead of failing, so every float option that becomes a
   simulated span passes [span_sec_ok] before anything runs. NaN fails
   both comparisons. *)
let max_simtime_sec = Dcsim.Simtime.(to_sec never)
let span_sec_ok s = s >= 1e-9 && s < max_simtime_sec

let dcscale_racks = ref 16
let fabric_chaos_racks = ref Experiments.Fabric_chaos.default_config.racks
let soak_config = ref Experiments.Soak.default_config

let run_one ?faults = function
  | "fig3" ->
      Experiments.Microbench.print_points ~title:"Figure 3 (measured)"
        (Experiments.Microbench.run_fig3 ())
  | "fig4" ->
      Experiments.Cpu_overhead.print_points ~title:"Figure 4(a) (measured)"
        (Experiments.Cpu_overhead.run_fig4a ());
      Experiments.Cpu_overhead.print_points ~title:"Figure 4(b) (measured)"
        (Experiments.Cpu_overhead.run_fig4b ())
  | "fig5" ->
      Experiments.Microbench.print_points ~title:"Figure 5 (measured)"
        (Experiments.Microbench.run_fig5 ())
  | "table1" ->
      Experiments.Paper_ref.print_table1 ();
      Experiments.Memcached_eval.print_rows ~title:"Table 1 (measured)"
        (Experiments.Memcached_eval.run_table1 ())
  | "table2" ->
      Experiments.Paper_ref.print_table2 ();
      Experiments.Memcached_eval.print_rows ~title:"Table 2 (measured)"
        (Experiments.Memcached_eval.run_table2 ())
  | "table3" ->
      Experiments.Paper_ref.print_table3 ();
      Experiments.Memcached_eval.print_rows ~title:"Table 3 (measured)"
        (Experiments.Memcached_eval.run_table3 ())
  | "table4" ->
      Experiments.Paper_ref.print_table4 ();
      Experiments.Fastrak_eval.print (Experiments.Fastrak_eval.run ())
  | "fig12" -> Experiments.Migration_tcp.print (Experiments.Migration_tcp.run ())
  | "chaos" ->
      Experiments.Chaos_eval.print
        (Experiments.Chaos_eval.run ?schedule:faults ())
  | "dcscale" ->
      let config =
        { Experiments.Dcscale.default_config with racks = !dcscale_racks }
      in
      let sharded = Experiments.Dcscale.run ~config () in
      let single =
        Experiments.Dcscale.run
          ~config:{ config with Experiments.Dcscale.sharded = false }
          ()
      in
      Printf.printf "  lookahead window: %.1f us\n"
        sharded.Experiments.Dcscale.lookahead_us;
      Experiments.Dcscale.print_comparison ~sharded ~single
  | "soak" ->
      Experiments.Soak.print (Experiments.Soak.run ~config:!soak_config ())
  | "fabric-chaos" ->
      let config =
        {
          Experiments.Fabric_chaos.default_config with
          racks = !fabric_chaos_racks;
        }
      in
      Experiments.Fabric_chaos.print
        (Experiments.Fabric_chaos.run ?schedule:faults ~config ())
  | "ablation" ->
      Experiments.Ablation.print_scoring (Experiments.Ablation.run_scoring ());
      Experiments.Ablation.print_tcam
        (Experiments.Ablation.run_tcam ~capacities:[ 2; 6; 12; 24; 2048 ] ());
      Experiments.Ablation.print_interval
        (Experiments.Ablation.run_interval ~epochs:[ 0.05; 0.1; 0.25; 0.5 ] ())
  | other ->
      Printf.eprintf "unknown experiment %S (try `list`)\n" other;
      Stdlib.exit 1

let list_cmd =
  let doc = "List available experiments" in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun () ->
          List.iter (fun (id, d) -> Printf.printf "  %-10s %s\n" id d) experiments;
          print_newline ();
          print_endline
            "  Finish-time experiments (table2-4) honour --scale FRACTION: \
             workloads";
          print_endline
            "  shrink to FRACTION of the paper's 2M requests/client and \
             finish times";
          print_endline
            "  are normalised back, so TPS/latency match but small fractions \
             coarsen";
          print_endline "  the tail. Default 0.05.")
      $ const ())

let run_cmd =
  let doc =
    "Run one or more experiments ('all' for everything), optionally tracing \
     control-plane events and dumping metrics"
  in
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT")
  in
  let scale =
    Arg.(
      value
      & opt float 0.05
      & info [ "scale" ] ~docv:"FRACTION"
          ~doc:
            "Fraction of the paper's 2M requests/client used by the \
             finish-time experiments (table2, table3, table4). Finish times \
             are normalised back to full scale, so TPS and latency figures \
             are unaffected, but very small fractions coarsen the reported \
             tail. Must be at most 1 and give at least one request per \
             client (at least 5e-07).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a JSONL trace of control-plane events (flow promotions \
             and demotions, TCAM installs/evicts, FPS splits, path \
             transitions, epoch ticks) to $(docv). One JSON object per \
             line, stamped with the sim clock; see docs/METRICS.md.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SCHEDULE"
          ~doc:
            "Fault schedule for the $(b,chaos) and $(b,fabric-chaos) \
             experiments: a named profile ($(b,none), $(b,lossy), \
             $(b,chaos), $(b,smoke), $(b,fabric)) or a spec like \
             $(b,drop=0.05,dup=0.01,jitter_us=200,down=1.0:1.3,\
             tcam_fail=0.05,tcam_soft=0.02). Defaults: $(b,lossy) for \
             chaos, $(b,fabric) for fabric-chaos. See docs/FAULTS.md.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "After all runs, dump the metrics registry to $(docv) with \
             per-experiment deltas and process totals. A $(b,.csv) suffix \
             selects CSV; anything else writes JSON.")
  in
  let timeseries_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeseries-out" ] ~docv:"FILE"
          ~doc:
            "Collect per-control-interval snapshots of directive RTT, \
             offload install latency, TCAM occupancy and per-path pps — \
             each with streaming p50/p90/p99 — and write them to $(docv). \
             A $(b,.csv) suffix selects CSV; anything else writes JSONL. \
             See docs/METRICS.md.")
  in
  let cache_capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:
            "Cap each VIF's datapath flow cache at $(docv) exact-match \
             entries; the wildcard megaflow tier gets $(docv)/4 (minimum \
             16). Small values force LRU churn and keep the revalidator \
             busy; $(b,0) disables the exact tier so every hit comes from \
             a megaflow. Default: the built-in 8192/2048 config.")
  in
  let racks =
    Arg.(
      value
      & opt (some int) None
      & info [ "racks" ] ~docv:"N"
          ~doc:
            "Rack count for the $(b,dcscale) (1-84, default 16) and \
             $(b,fabric-chaos) (2-84, default 4) experiments. Each rack \
             is a full testbed on its own engine shard; rack 1 degenerates \
             to the classic single-engine loop.")
  in
  let workload =
    let parse s =
      match Experiments.Soak.workload_of_string s with
      | Some w -> Ok w
      | None -> Error (`Msg (Printf.sprintf "invalid workload %S" s))
    in
    let print ppf w =
      Format.pp_print_string ppf (Experiments.Soak.workload_to_string w)
    in
    Arg.(
      value
      & opt (some (conv (parse, print))) None
      & info [ "workload" ] ~docv:"SHAPE"
          ~doc:
            "Traffic shape for the $(b,soak) experiment: $(b,mixed) \
             (diurnal curve + on/off bursts + incast, the default), \
             $(b,steady) (flat Poisson, sources always on), $(b,bursty) \
             (aggressive on/off duty cycle) or $(b,incast-heavy) (frequent \
             large fan-in bursts at the victim service).")
  in
  let duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:
            "Simulated seconds the $(b,soak) experiment runs (default \
             5.0). Longer runs see more diurnal cycles and churn events. \
             Must be finite and at least 1e-09 (one nanosecond).")
  in
  let churn_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "churn-rate" ] ~docv:"RATE"
          ~doc:
            "Tenant churn events per second per rack for the $(b,soak) \
             experiment (default 2.0); each departure/arrival pair is a \
             two-phase VM migration. $(b,0) disables churn. Otherwise the \
             period 1/RATE must be at least one nanosecond and finite.")
  in
  let flight_recorder =
    Arg.(
      value
      & opt int 0
      & info [ "flight-recorder" ] ~docv:"N"
          ~doc:
            "Keep the last $(docv) trace events in an always-on in-memory \
             ring (the flight recorder). The ring is dumped as JSONL to \
             $(b,flight.jsonl) when a strict monitor stops the run, and at \
             the end of a clean run; $(b,fabric-chaos) also dumps it to \
             $(b,flight.crash.jsonl) at its scripted crash. Every dump feeds \
             $(b,trace-export) like any trace. Recording costs nanoseconds per event and no \
             steady-state allocation, so it is safe to leave on for any \
             run. $(b,0) (the default) disables it.")
  in
  let tenant_report =
    Arg.(
      value & flag
      & info [ "tenant-report" ]
          ~doc:
            "After each experiment, print the per-tenant SLO scoreboard: \
             achieved goodput and p99 request latency against the \
             contracted FPS limits, with a per-tenant verdict. With \
             $(b,--monitors), an SLO breach is also reported as a \
             $(b,tenant_slo) monitor violation.")
  in
  let monitors =
    let parse = function
      | "off" -> Ok `Off
      | "warn" -> Ok `Warn
      | "strict" -> Ok `Strict
      | s -> Error (`Msg (Printf.sprintf "invalid monitor mode %S" s))
    in
    let print ppf m =
      Format.pp_print_string ppf
        (match m with `Off -> "off" | `Warn -> "warn" | `Strict -> "strict")
    in
    Arg.(
      value
      & opt (conv (parse, print)) `Off
      & info [ "monitors" ] ~docv:"MODE"
          ~doc:
            "Run the online invariant monitors (TCAM occupancy within \
             capacity, FPS split conservation, per-server directive seq \
             monotonicity, span pairing, migration stage ordering) over \
             the live trace stream. $(b,warn) prints a report after the \
             runs; $(b,strict) stops at the first violation with a \
             non-zero exit. Default $(b,off).")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun scale trace faults metrics_out timeseries_out cache_capacity
                 racks monitors workload duration churn_rate flight_recorder
                 tenant_report ids ->
          (* NaN fails every comparison below, so each check is written
             as the condition a good value meets. At most 1 keeps the
             slowest Table 2-4 row (90 s at full scale) under
             [run_to_finish]'s 300 s cap. *)
          if not (scale <= 1.0 && 2_000_000.0 *. scale >= 1.0) then begin
            Printf.eprintf
              "fastrak_sim: --scale must be at most 1 and give at least one \
               request per client (>= 5e-07)\n";
            Stdlib.exit 1
          end;
          Experiments.Memcached_eval.requests_scale := scale;
          (match workload with
          | None -> ()
          | Some w ->
              soak_config := { !soak_config with Experiments.Soak.workload = w });
          (match duration with
          | None -> ()
          | Some d when not (span_sec_ok d && span_sec_ok (10.0 *. d)) ->
              (* Soak's steady workload turns 10 x duration into a span. *)
              Printf.eprintf
                "fastrak_sim: --duration must be at least 1e-09 and below %g \
                 seconds\n"
                (max_simtime_sec /. 10.0);
              Stdlib.exit 1
          | Some d ->
              soak_config := { !soak_config with Experiments.Soak.duration = d });
          (match churn_rate with
          | None -> ()
          | Some c when not (c = 0.0 || span_sec_ok (1.0 /. c)) ->
              (* Soak turns 1/RATE into the churn period's span; a 0 ns
                 period would re-arm at the same instant forever. *)
              Printf.eprintf
                "fastrak_sim: --churn-rate must be 0 or a rate whose period \
                 1/RATE is at least 1e-09 and below %g seconds\n"
                max_simtime_sec;
              Stdlib.exit 1
          | Some c ->
              soak_config :=
                { !soak_config with Experiments.Soak.churn_rate = c });
          (match racks with
          | None -> ()
          | Some n when n < 1 || n > 84 ->
              Printf.eprintf "fastrak_sim: --racks must be in 1..84\n";
              Stdlib.exit 1
          | Some n ->
              dcscale_racks := n;
              fabric_chaos_racks := n;
              soak_config := { !soak_config with Experiments.Soak.racks = n });
          (match cache_capacity with
          | None -> ()
          | Some n when n < 0 ->
              Printf.eprintf "fastrak_sim: --cache-capacity must be >= 0\n";
              Stdlib.exit 1
          | Some n ->
              Vswitch.Flow_cache.default_config :=
                {
                  !Vswitch.Flow_cache.default_config with
                  Vswitch.Flow_cache.exact_capacity = n;
                  megaflow_capacity = Stdlib.max 16 (n / 4);
                });
          (match Option.map Faults.Schedule.profile faults with
          | None | Some (Ok _) -> ()
          | Some (Error msg) ->
              Printf.eprintf "fastrak_sim: --faults: %s\n" msg;
              Stdlib.exit 1);
          (* The ring is two arrays of N slots. *)
          if flight_recorder < 0 || flight_recorder > Sys.max_array_length
          then begin
            Printf.eprintf "fastrak_sim: --flight-recorder must be in 0..%d\n"
              Sys.max_array_length;
            Stdlib.exit 1
          end;
          let open_out_or_die file =
            try open_out file
            with Sys_error msg ->
              Printf.eprintf "fastrak_sim: cannot open output file: %s\n" msg;
              Stdlib.exit 1
          in
          (* Open every sink before any experiment runs, so a bad path
             fails in milliseconds instead of after the last run. *)
          let metrics_oc = Option.map open_out_or_die metrics_out in
          let timeseries_oc = Option.map open_out_or_die timeseries_out in
          if timeseries_oc <> None then Obs.Timeseries.enable ();
          let trace_oc =
            Option.map
              (fun file ->
                let oc = open_out_or_die file in
                Obs.Trace.use_jsonl oc;
                oc)
              trace
          in
          let monitor =
            match monitors with
            | `Off -> None
            | (`Warn | `Strict) as m ->
                let mon =
                  Obs.Monitor.create
                    ~mode:(if m = `Strict then Obs.Monitor.Strict else Obs.Monitor.Warn)
                    ()
                in
                Obs.Monitor.attach mon;
                Some mon
          in
          (* Installed last so the recorder sees each event before the
             monitors do: when a strict monitor stops the run, the
             offending event is already in the ring. *)
          if flight_recorder > 0 then
            Obs.Flight.install ~dump_path:"flight.jsonl"
              (Obs.Flight.create ~capacity:flight_recorder ());
          let dump_flight ~out =
            match Obs.Flight.dump_installed () with
            | Some (path, n) ->
                Printf.fprintf out "flight recorder: %d event(s) -> %s\n" n
                  path
            | None -> ()
          in
          let ids =
            if List.mem "all" ids then List.map fst experiments else ids
          in
          (try
             List.iter
               (fun id ->
                 Obs.Slo.reset ();
                 Experiments.Metric_snapshot.record ~id (fun () ->
                     run_one ?faults id);
                 if tenant_report then begin
                   print_newline ();
                   print_string (Obs.Slo.report ());
                   match monitor with
                   | Some mon -> Obs.Slo.check mon
                   | None -> ()
                 end)
               ids
           with
          | Obs.Monitor.Strict_violation v ->
              Printf.eprintf "fastrak_sim: monitor violation: %s\n"
                (Obs.Monitor.violation_to_string v);
              let ctx = Obs.Monitor.context_to_string v in
              if ctx <> "" then Printf.eprintf "%s" ctx;
              dump_flight ~out:stderr;
              Stdlib.exit 3
          | Invalid_argument msg ->
              Printf.eprintf "fastrak_sim: %s\n" msg;
              Stdlib.exit 1);
          (* The dump notice goes to stderr so stdout stays
             byte-identical to a run without the recorder. *)
          dump_flight ~out:stderr;
          (match trace_oc with
          | Some oc ->
              Obs.Trace.disable ();
              close_out oc
          | None -> ());
          (match monitor with
          | Some mon ->
              Obs.Trace.disable ();
              print_newline ();
              print_string (Obs.Monitor.report mon)
          | None -> ());
          (match (timeseries_out, timeseries_oc) with
          | Some file, Some oc ->
              Obs.Timeseries.disable ();
              let rows = Obs.Timeseries.rows () in
              if Filename.check_suffix file ".csv" then
                Obs.Timeseries.write_csv oc rows
              else Obs.Timeseries.write_jsonl oc rows;
              close_out oc
          | _ -> ());
          match (metrics_out, metrics_oc) with
          | Some file, Some oc ->
              if Filename.check_suffix file ".csv" then
                Experiments.Metric_snapshot.write_csv oc
              else Experiments.Metric_snapshot.write_json oc;
              close_out oc
          | _ -> ())
      $ scale $ trace $ faults $ metrics_out $ timeseries_out $ cache_capacity
      $ racks $ monitors $ workload $ duration $ churn_rate $ flight_recorder
      $ tenant_report $ ids)

let trace_export_cmd =
  let doc =
    "Convert a JSONL trace (from $(b,run --trace)) to Chrome trace-event \
     JSON for Perfetto"
  in
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:"JSONL trace written by $(b,run --trace).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Output file (default: the input with a $(b,.json) suffix). \
             Open it at https://ui.perfetto.dev or chrome://tracing.")
  in
  Cmd.v (Cmd.info "trace-export" ~doc)
    Term.(
      const (fun input output ->
          let output =
            match output with
            | Some o -> o
            | None ->
                (if Filename.check_suffix input ".jsonl" then
                   Filename.chop_suffix input ".jsonl"
                 else input)
                ^ ".json"
          in
          match Obs.Export.convert_file ~input ~output with
          | Ok { Obs.Export.events_in; skipped; events_out } ->
              Printf.printf
                "%s: %d trace events -> %d Chrome events (%d malformed line(s) \
                 skipped)\n"
                output events_in events_out skipped
          | Error msg ->
              Printf.eprintf "fastrak_sim: trace-export: %s\n" msg;
              Stdlib.exit 1)
      $ input $ output)

let () =
  let doc = "FasTrak (CoNEXT 2013) reproduction simulator" in
  exit (Cmd.eval (Cmd.group (Cmd.info "fastrak_sim" ~version:"1.0" ~doc)
                    [ list_cmd; run_cmd; trace_export_cmd ]))
