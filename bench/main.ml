(* The benchmark harness: times the scenario groups of
   Experiments.Bench_scenarios, writes one BENCH_<group>.json each and
   gates every allocation budget a scenario declares. The paper's
   tables and figures are printed by `fastrak_sim run <ids>`; see
   README.md.

   dune exec bench/main.exe -- bench
   [decision|measurement|eventqueue|obs|vswitch|hotpath|engine|workloads]*
   [--smoke] [--out-dir DIR]
   runs the named groups (all of them when none are named) and exits 1
   when any scenario allocates more than its budget; --smoke shrinks
   sizes so the @alloc-check alias stays cheap enough for every
   `dune runtest`. A bad group name or out dir prints usage and exits 2
   before anything runs. Scenario list and JSON schema: docs/BENCH.md. *)

open Experiments

let line () = print_endline (String.make 84 '=')

let usage =
  "usage: main.exe bench [GROUP...] [--smoke] [--out-dir DIR]\n\
   groups: "
  ^ String.concat " " (List.map fst Bench_scenarios.groups)
  ^ "\nThe paper's tables and figures: dune exec bin/fastrak_sim.exe -- run <ids>"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("main.exe: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

let parse args =
  let rec go (smoke, out_dir, names) = function
    | [] -> (smoke, out_dir, List.rev names)
    | "--smoke" :: rest -> go (true, out_dir, names) rest
    | "--out-dir" :: d :: rest -> go (smoke, d, names) rest
    | g :: rest -> go (smoke, out_dir, g :: names) rest
  in
  let smoke, out_dir, names = go (false, ".", []) args in
  let groups =
    if names = [] then Bench_scenarios.groups
    else
      List.map
        (fun g ->
          match List.assoc_opt g Bench_scenarios.groups with
          | Some run -> (g, run)
          | None -> fail "unknown bench group %S" g)
        names
  in
  if not (Sys.file_exists out_dir && Sys.is_directory out_dir) then
    fail "no such directory %S" out_dir;
  (smoke, out_dir, groups)

let print_results results =
  List.iter
    (fun (r : Bench_scenarios.result) ->
      Printf.printf "  %-28s %12.1f ns/%s %14.1f ops/s %10.1f words/op%s\n"
        r.scenario r.ns_per_op r.unit_ r.ops_per_sec r.minor_words_per_op
        (match r.baseline_ns_per_op with
        | Some bl -> Printf.sprintf "  (%.1fx vs baseline)" (bl /. r.ns_per_op)
        | None -> ""))
    results

(* Allocation counts are deterministic, so every run gates, at either
   size. *)
let gate results =
  print_endline "allocation budgets (minor words per op)";
  let failed =
    List.fold_left
      (fun failed (r : Bench_scenarios.result) ->
        match r.budget with
        | None -> failed
        | Some budget ->
            let ok = r.minor_words_per_op <= budget in
            Printf.printf "  %-28s %12.2f words/op  (budget %10.2f)  %s\n"
              r.scenario r.minor_words_per_op budget
              (if ok then "ok" else "FAIL");
            failed || not ok)
      false results
  in
  print_endline (if failed then "alloc-check: FAILED" else "alloc-check: ok");
  if failed then exit 1

let () =
  let smoke, out_dir, groups =
    match List.tl (Array.to_list Sys.argv) with
    | "bench" :: args -> parse args
    | _ ->
        prerr_endline usage;
        exit 2
  in
  print_endline "FasTrak control-plane scalability benchmarks";
  line ();
  Printf.printf "scalability scenarios (%s) -> %s/BENCH_*.json\n"
    (if smoke then "smoke sizes" else "full sizes")
    out_dir;
  let results =
    List.concat_map
      (fun (group, run) ->
        let results = run ~smoke in
        let path = Bench_scenarios.write_json ~bench:group ~out_dir results in
        Printf.printf "%s:\n" group;
        print_results results;
        Printf.printf "  wrote %s\n" path;
        results)
      groups
  in
  line ();
  gate results
