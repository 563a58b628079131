(* The benchmark harness: hosts the scalability scenarios that emit
   BENCH_*.json and the allocation regression gate. The paper's tables
   and figures are printed by `fastrak_sim run <ids>`; see README.md.

   Scalability mode: dune exec bench/main.exe -- bench
   [decision|measurement|eventqueue|obs|vswitch|hotpath|engine|workloads]*
   [--smoke] [--out-dir DIR]
   runs the named scenario groups (all of them when none are named) and
   writes one BENCH_<group>.json each; --smoke shrinks sizes so the
   @bench-smoke alias stays cheap enough for every `dune runtest`.
   Scenario list and JSON schema: docs/BENCH.md.

   Allocation gate: dune exec bench/main.exe -- alloc-check (the
   @alloc-check tier-1 alias) fails if any steady-state per-packet
   scenario allocates, a decide call exceeds its garbage budget, or a
   budget names a scenario that no longer runs. *)

open Experiments

let line () = print_endline (String.make 84 '=')

(* --- BENCH_*.json scalability scenarios (docs/BENCH.md) --- *)

let print_bench_results results =
  List.iter
    (fun (r : Bench_scenarios.result) ->
      Printf.printf "  %-28s %12.1f ns/%s %14.1f ops/s %10.1f words/op%s\n"
        r.Bench_scenarios.scenario r.Bench_scenarios.ns_per_op
        r.Bench_scenarios.unit_ r.Bench_scenarios.ops_per_sec
        r.Bench_scenarios.minor_words_per_op
        (match r.Bench_scenarios.baseline_ns_per_op with
        | Some bl -> Printf.sprintf "  (%.1fx vs baseline)" (bl /. r.Bench_scenarios.ns_per_op)
        | None -> ""))
    results

let run_bench_mode args =
  let rec parse (smoke, out_dir, groups) = function
    | [] -> (smoke, out_dir, List.rev groups)
    | "--smoke" :: rest -> parse (true, out_dir, groups) rest
    | "--out-dir" :: d :: rest -> parse (smoke, d, groups) rest
    | g :: rest -> parse (smoke, out_dir, g :: groups) rest
  in
  let smoke, out_dir, groups = parse (false, ".", []) args in
  let groups =
    match groups with
    | [] ->
        [
          "decision"; "measurement"; "eventqueue"; "obs"; "vswitch"; "hotpath";
          "engine"; "workloads";
        ]
    | l -> l
  in
  line ();
  Printf.printf "scalability scenarios (%s) -> %s/BENCH_*.json\n"
    (if smoke then "smoke sizes" else "full sizes")
    out_dir;
  List.iter
    (fun group ->
      let results =
        match group with
        | "decision" -> Bench_scenarios.run_decision ~smoke
        | "measurement" -> Bench_scenarios.run_measurement ~smoke
        | "eventqueue" -> Bench_scenarios.run_eventqueue ~smoke
        | "obs" -> Bench_scenarios.run_obs ~smoke
        | "vswitch" -> Bench_scenarios.run_vswitch ~smoke
        | "hotpath" -> Bench_scenarios.run_hotpath ~smoke
        | "engine" -> Bench_scenarios.run_engine ~smoke
        | "workloads" -> Bench_scenarios.run_workloads ~smoke
        | g -> failwith ("unknown bench group: " ^ g)
      in
      let path = Bench_scenarios.write_json ~bench:group ~out_dir results in
      Printf.printf "%s:\n" group;
      print_bench_results results;
      Printf.printf "  wrote %s\n" path)
    groups

(* The allocation regression gate behind the @alloc-check tier-1
   alias: exits non-zero if any steady-state per-packet scenario
   allocates, a decide call exceeds 10% of the committed
   pre-optimisation garbage (BENCH_decision.json), or a budget matched
   no scenario. *)
let run_alloc_check () =
  print_endline "allocation regression gate (minor words per op vs budget)";
  let failed = ref false in
  List.iter
    (fun (scenario, budget, measured) ->
      match measured with
      | Some words ->
          let ok = words <= budget in
          if not ok then failed := true;
          Printf.printf "  %-28s %12.2f words/op  (budget %10.2f)  %s\n"
            scenario words budget
            (if ok then "ok" else "FAIL")
      | None ->
          failed := true;
          Printf.printf "  %-28s FAIL: no such scenario (budget %.2f)\n" scenario budget)
    (Bench_scenarios.alloc_check ());
  if !failed then begin
    print_endline "alloc-check: FAILED";
    exit 1
  end
  else print_endline "alloc-check: ok"

let usage =
  "usage: main.exe bench [GROUP...] [--smoke] [--out-dir DIR]\n\
  \       main.exe alloc-check\n\
   The paper's tables and figures: dune exec bin/fastrak_sim.exe -- run <ids>"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "alloc-check" ] -> run_alloc_check ()
  | "bench" :: bench_args ->
      print_endline "FasTrak control-plane scalability benchmarks";
      run_bench_mode bench_args;
      line ();
      print_endline "done."
  | _ ->
      prerr_endline usage;
      exit 2
