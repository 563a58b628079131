(* End-to-end benchmark. See README.md.

     main.exe [--runs 5] [--seed 42] [--json OUT]
         every workload, round-robin passes, then one traced pass
     main.exe --workload W --seed N --seconds S --trace 0|1
         one workload for S seconds; last line is one JSON result
     main.exe compare OLD.json NEW.json
     main.exe smoke [--expected DIR]

   Every measurement runs in a fresh child ([main.exe child ...], see
   child.ml), one at a time, each just after a host-speed probe in a
   process of its own ([main.exe probe], see probe.ml). *)

let expected_dir = ref "bench/e2e/expected"

(* {1 Statistics} *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles as Python's statistics.quantiles(xs, n=4)
   gives them (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

let list_min = List.fold_left Float.min infinity
let list_max = List.fold_left Float.max neg_infinity

(* {1 End-to-end metrics}

   [bound] is the share of the old median by which a metric may worsen
   before [compare] calls it worse; [floor] an absolute minimum for that
   allowance. Lower is better for all four. The three BENCHMARK.json
   lists carry the same bounds there. Across ten 30 s runs per workload,
   each on its own seed, the quartile spread of [wall_rel] reached 8%
   and that of [peak_rss_mb] 2.7% (soak's heap depends on its input):
   hence 25% and 10%, each three times the worst spread. Raw [wall_s]
   follows the host's speed (see probe.ml) and spread up to 42%. *)

type e2e = { name : string; unit_ : string; bound : float; floor : float }

let e2e_metrics =
  [
    { name = "wall_rel"; unit_ = "probes"; bound = 0.25; floor = 0.0 };
    { name = "wall_s"; unit_ = "s"; bound = 0.25; floor = 0.0 };
    { name = "setup_s"; unit_ = "s"; bound = 0.25; floor = 0.005 };
    { name = "peak_rss_mb"; unit_ = "MB"; bound = 0.10; floor = 0.0 };
  ]

(* {1 Children} *)

type measurement = {
  exited_ok : bool;
  report : string;
  values : (string * float) list;
}

let split_trailer out =
  let lines = String.split_on_char '\n' out in
  let rec go acc = function
    | [] -> (out, [])
    | l :: rest when l = Child.marker ->
        let report = String.concat "\n" (List.rev ("" :: acc)) in
        let values =
          List.filter_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ k; v ] -> Option.map (fun f -> (k, f)) (float_of_string_opt v)
              | _ -> None)
            rest
        in
        (report, values)
    | l :: rest -> go (l :: acc) rest
  in
  go [] lines

let size_arg = function Workload.Full -> "full" | Workload.Smoke -> "smoke"

(* Runs [main.exe args...] to completion: (exited with 0, its stdout). *)
let run_self args =
  let exe = Sys.executable_name in
  let read_end, write_end = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin write_end
      Unix.stderr
  in
  Unix.close write_end;
  let from_child = Unix.in_channel_of_descr read_end in
  let out = In_channel.input_all from_child in
  close_in from_child;
  let _, status = Unix.waitpid [] pid in
  (status = Unix.WEXITED 0, out)

(* The probe, in its own process, then the workload child. *)
let spawn (w : Workload.t) ~size ~seed ~profile =
  let probe_ok, probe_out = run_self [ "probe" ] in
  let probe_s = float_of_string_opt (String.trim probe_out) in
  let spawned_at = Unix.gettimeofday () in
  let ok, out =
    run_self
      ([ "child"; w.name; size_arg size; string_of_int seed;
         Printf.sprintf "%.6f" spawned_at ]
      @ if profile then [ "--profile" ] else [])
  in
  let report, values = split_trailer out in
  let values =
    match (probe_s, List.assoc_opt "wall_s" values) with
    | Some p, Some wall when probe_ok && p > 0.0 ->
        ("probe_s", p) :: ("wall_rel", wall /. p) :: values
    | _ -> []
  in
  { exited_ok = ok && values <> []; report; values }

(* {1 Checking reports} *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A line diff of [a] against [b] in unified style (no hunk headers;
   reports are a few dozen lines). *)
let print_diff ~a ~b =
  let a = Array.of_list (String.split_on_char '\n' a)
  and b = Array.of_list (String.split_on_char '\n' b) in
  let n = Array.length a and m = Array.length b in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if a.(i) = b.(j) then lcs.(i + 1).(j + 1) + 1
         else Int.max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let rec go i j =
    if i < n && j < m && a.(i) = b.(j) then (
      prerr_endline (" " ^ a.(i));
      go (i + 1) (j + 1))
    else if i < n && (j = m || lcs.(i + 1).(j) >= lcs.(i).(j + 1)) then (
      prerr_endline ("-" ^ a.(i));
      go (i + 1) j)
    else if j < m then (
      prerr_endline ("+" ^ b.(j));
      go i (j + 1))
  in
  go 0 0

(* {1 Tallies} *)

type tally = {
  workload : Workload.t;
  size : Workload.size;
  references : (int, string * string) Hashtbl.t;
      (** Input seed -> (report every run of it must print, its source). *)
  mutable attempted : int;
  mutable failed : int;
  mutable plain : (string * float) list list;
  mutable traced : (string * float) list list;
}

let tally workload ~size =
  { workload; size; references = Hashtbl.create 8; attempted = 0; failed = 0;
    plain = []; traced = [] }

(* The committed report applies at seed 42, and at every seed for a
   workload the seed does not reach; otherwise the first run of an input
   sets the report its later runs must repeat. *)
let reference t ~seed report =
  let key = if t.workload.seeded then seed else 42 in
  match Hashtbl.find_opt t.references key with
  | Some r -> r
  | None ->
      let r =
        if key = 42 then
          let file =
            Filename.concat !expected_dir
              (t.workload.name
              ^ match t.size with Workload.Full -> ".txt" | Smoke -> ".smoke.txt")
          in
          (read_file file, file)
        else (report, Printf.sprintf "the first run of seed %d" seed)
      in
      Hashtbl.replace t.references key r;
      r

let measure t ~seed ~profile =
  let m = spawn t.workload ~size:t.size ~seed ~profile in
  t.attempted <- t.attempted + 1;
  let matches =
    let expected, source = reference t ~seed m.report in
    expected = m.report
    || begin
         Printf.eprintf "%s: report differs from %s\n--- expected\n+++ got\n"
           t.workload.name source;
         print_diff ~a:expected ~b:m.report;
         false
       end
  in
  if not m.exited_ok then
    Printf.eprintf "%s: child failed (no measurements or non-zero exit)\n%!"
      t.workload.name;
  if m.exited_ok && matches then
    if profile then t.traced <- m.values :: t.traced
    else t.plain <- m.values :: t.plain
  else t.failed <- t.failed + 1

let values_of key runs = List.filter_map (List.assoc_opt key) runs

(* {1 Per-layer metrics} *)

let count_metrics =
  [
    ("dcsim.events", "count"); ("dcsim.windows", "count");
    ("dcsim.events_per_window", "events/window"); ("tor.forwarded", "count");
    ("tor.vrf.installs", "count"); ("tor.acl_drops", "count");
    ("vswitch.tx_packets", "count"); ("vswitch.upcalls", "count");
    ("vswitch.cache.hit_ratio", "hits/lookups"); ("nic.vf_tx_packets", "count");
    ("fabric.core.routed", "count"); ("fabric.channel.drops", "count");
    ("fastrak.decide.calls", "count"); ("fastrak.me.epochs", "count");
    ("fastrak.promotions", "count"); ("fastrak.audit.sweeps", "count");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
  ]

(* (name, unit, value) for every layer metric the runs support: self
   time from the pooled samples of the traced runs, counts from the
   untraced ones. *)
let layer_metrics t =
  let samples =
    List.map
      (fun l ->
        (l, List.fold_left ( +. ) 0.0 (values_of ("samples." ^ l) t.traced)))
      (Sampler.layers @ [ Sampler.other ])
  in
  let total = List.fold_left (fun acc (_, k) -> acc +. k) 0.0 samples in
  let cpu = median (values_of "cpu_s" t.traced) in
  let self =
    if total = 0.0 then []
    else
      List.map (fun (l, k) -> (l ^ ".self_s", "s", k /. total *. cpu)) samples
  in
  let profile =
    if t.traced = [] then []
    else
      [
        ("profile.samples", "count", total);
        ( "profile.overhead_frac", "frac",
          (median (values_of "wall_rel" t.traced)
          /. median (values_of "wall_rel" t.plain))
          -. 1.0 );
      ]
  in
  let counts =
    List.filter_map
      (fun (name, unit_) ->
        match values_of name t.plain with
        | [] -> None
        | vs -> Some (name, unit_, median vs))
      count_metrics
  in
  self @ profile @ counts

(* {1 Output} *)

let failed_frac t = float_of_int t.failed /. float_of_int (Int.max 1 t.attempted)

let print_summary t =
  Printf.printf "== %s: %d runs, %d failed ==\n" t.workload.name t.attempted
    t.failed;
  List.iter
    (fun e ->
      match values_of e.name t.plain with
      | [] -> ()
      | vs ->
          Printf.printf "  %-28s %12.6g %-6s [%.6g .. %.6g] over %d runs\n"
            e.name (median vs) e.unit_ (list_min vs) (list_max vs)
            (List.length vs))
    e2e_metrics;
  Printf.printf "  %-28s %12.6g %s\n" "failed_frac" (failed_frac t) "runs/runs";
  List.iter
    (fun (name, unit_, v) -> Printf.printf "  %-28s %12.6g %s\n" name v unit_)
    (layer_metrics t);
  print_newline ()

let num f = Json.Num f

let metric_json (name, unit_, v) =
  (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit_) ])

let to_json t =
  let e2e =
    List.map
      (fun e ->
        ( e.name,
          Json.Obj
            [
              ("unit", Json.Str e.unit_);
              ("values", Json.Arr (List.rev_map num (values_of e.name t.plain)));
            ] ))
      e2e_metrics
  in
  Json.Obj
    [
      ("attempted", num (float_of_int t.attempted));
      ("failed", num (float_of_int t.failed));
      ("e2e", Json.Obj e2e);
      ("layers", Json.Obj (List.map metric_json (layer_metrics t)));
    ]

(* {1 Modes} *)

(* Round-robin passes over every workload, then one traced pass. *)
let suite ~runs ~seed ~json =
  let tallies = List.map (tally ~size:Workload.Full) Workload.all in
  for pass = 1 to runs do
    Printf.eprintf "pass %d/%d\n%!" pass runs;
    List.iter (measure ~seed ~profile:false) tallies
  done;
  prerr_endline "traced pass";
  List.iter (measure ~seed ~profile:true) tallies;
  List.iter print_summary tallies;
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [
            ("seed", num (float_of_int seed));
            ("runs", num (float_of_int runs));
            ( "workloads",
              Json.Obj (List.map (fun t -> (t.workload.name, to_json t)) tallies) );
          ]
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string doc ^ "\n")))
    json;
  if List.exists (fun t -> t.failed > 0) tallies then exit 1

(* The metric names BENCHMARK.json lists under [section]
   ("end_to_end" or "per_layer"). *)
let listed_metrics section =
  match Json.member section (Json.of_string (read_file "BENCHMARK.json")) with
  | Some (Json.Arr entries) ->
      List.filter_map
        (fun e ->
          match Json.member "name" e with Some (Json.Str n) -> Some n | _ -> None)
        entries
  | _ -> failwith ("BENCHMARK.json: no " ^ section ^ " list")

(* The [j]th input a timed run draws from its seed. One input would make
   a run's median that input's time: a seeded workload's wall time and
   peak RSS differ by several per cent between seeds. *)
let input_seed seed j = if j = 0 then seed else Hashtbl.hash (seed, j)

(* One workload for [seconds]: untraced runs, or with [trace] pairs of
   an untraced and a traced run on the same input. Step [s] runs input
   [max 0 (s - 1)]: the first input runs twice, so every run checks that
   an input repeats its report. A step starts only while the typical
   step still fits in the time left, and at least three do. *)
let timed (w : Workload.t) ~seed ~seconds ~trace =
  let t = tally w ~size:Workload.Full in
  let start = Unix.gettimeofday () in
  let rec loop steps =
    let elapsed = Unix.gettimeofday () -. start in
    let typical = if steps = 0 then 0.0 else elapsed /. float_of_int steps in
    if steps < 3 || elapsed +. typical <= seconds then (
      let seed = input_seed seed (Int.max 0 (steps - 1)) in
      measure t ~seed ~profile:false;
      if trace then measure t ~seed ~profile:true;
      loop (steps + 1))
  in
  loop 0;
  print_summary t;
  let have, section =
    if trace then (layer_metrics t, "per_layer")
    else
      ( List.map
          (fun e -> (e.name, e.unit_, median (values_of e.name t.plain)))
          e2e_metrics,
        "end_to_end" )
  in
  let metrics =
    List.map
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) have with
        | Some m -> m
        | None -> failwith ("no value for " ^ name))
      (listed_metrics section)
  in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (t.failed = 0));
        ("attempted", num (float_of_int t.attempted));
        ("failed", num (float_of_int t.failed));
        ("metrics", Json.Obj (List.map metric_json metrics));
      ]
  in
  print_endline (Json.to_string result)

(* Tiny horizons, traced: the child protocol works, reports match
   expected/*.smoke.txt, and the sampler finds the library layers. *)
let smoke () =
  let ok =
    List.for_all
      (fun w ->
        let t = tally w ~size:Workload.Smoke in
        measure t ~seed:42 ~profile:true;
        let samples key = List.fold_left ( +. ) 0.0 (values_of key t.traced) in
        let total =
          List.fold_left
            (fun acc l -> acc +. samples ("samples." ^ l))
            0.0
            (Sampler.layers @ [ Sampler.other ])
        in
        let in_lib = total -. samples ("samples." ^ Sampler.other) in
        let lib_share = if total = 0.0 then 0.0 else in_lib /. total in
        Printf.printf "%-20s %s  %.0f samples, %.0f%% in lib/\n" w.name
          (if t.failed = 0 then "ok" else "FAILED")
          total (100.0 *. lib_share);
        t.failed = 0 && lib_share >= 0.9)
      Workload.all
  in
  if not ok then exit 1

(* {1 compare} *)

let load path =
  match Json.member "workloads" (Json.of_string (read_file path)) with
  | Some (Json.Obj ws) -> ws
  | _ -> failwith (path ^ ": no \"workloads\" object")

let compare_files old_path new_path =
  let old_ws = load old_path and new_ws = load new_path in
  let worse = ref false in
  let spread vs =
    let q1, q3 = quartiles vs in
    (q3 -. q1) /. median vs
  in
  Printf.printf "%-18s %-12s %12s %25s %12s %25s  %s\n" "workload" "metric"
    "old median" "old [q1, q3]" "new median" "new [q1, q3]" "verdict";
  List.iter
    (fun (wname, old_w) ->
      match List.assoc_opt wname new_ws with
      | None ->
          Printf.printf "%-18s missing from %s\n" wname new_path;
          worse := true
      | Some new_w ->
          List.iter
            (fun e ->
              let values w =
                match
                  Option.bind (Json.member "e2e" w) (Json.member e.name)
                  |> Option.map (Json.member "values")
                with
                | Some (Some (Json.Arr xs)) -> List.filter_map Json.to_float xs
                | _ -> []
              in
              let a = values old_w and b = values new_w in
              if a = [] || b = [] then (
                Printf.printf "%-18s %-12s no values\n" wname e.name;
                worse := true)
              else
                let ma = median a and mb = median b in
                let allowance = Float.max (e.bound *. ma) e.floor in
                let verdict =
                  if Float.max (spread a) (spread b) > e.bound then
                    if list_max b < list_min a then "better" else "unresolved"
                  else if mb -. ma > allowance then "worse"
                  else if ma -. mb > allowance then "better"
                  else "unchanged"
                in
                if verdict = "worse" then worse := true;
                let qa1, qa3 = quartiles a and qb1, qb3 = quartiles b in
                Printf.printf
                  "%-18s %-12s %12.6g %25s %12.6g %25s  %s\n" wname e.name ma
                  (Printf.sprintf "[%.6g, %.6g]" qa1 qa3)
                  mb
                  (Printf.sprintf "[%.6g, %.6g]" qb1 qb3)
                  verdict)
            e2e_metrics;
          let frac w =
            let get k =
              Option.value ~default:0.0 (Option.bind (Json.member k w) Json.to_float)
            in
            get "failed" /. Float.max 1.0 (get "attempted")
          in
          let fa = frac old_w and fb = frac new_w in
          let verdict =
            if fb > fa then "worse" else if fb < fa then "better" else "unchanged"
          in
          if fb > fa then worse := true;
          Printf.printf "%-18s %-12s %12.6g %25s %12.6g %25s  %s\n" wname
            "failed_frac" fa "" fb "" verdict)
    old_ws;
  if !worse then exit 1

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe [--runs N] [--seed N] [--json OUT]\n\
    \       main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe compare OLD.json NEW.json\n\
    \       main.exe smoke [--expected DIR]";
  exit 2

let workload_named name =
  match Workload.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" name
        (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
      exit 2

let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | ( [ "child"; name; size; seed; spawned_at ]
    | [ "child"; name; size; seed; spawned_at; "--profile" ] ) as args ->
      let size = if size = "smoke" then Workload.Smoke else Workload.Full in
      Child.run (workload_named name) ~size ~seed:(int_arg seed)
        ~spawned_at:(float_of_string spawned_at)
        ~profile:(List.mem "--profile" args)
  | [ "probe" ] -> Printf.printf "%.17g\n" (Probe.run ())
  | [ "compare"; a; b ] -> compare_files a b
  | "smoke" :: rest ->
      (match rest with
      | [] -> ()
      | [ "--expected"; dir ] -> expected_dir := dir
      | _ -> usage ());
      smoke ()
  | args ->
      let runs = ref 5 and seed = ref 42 and json = ref None in
      let workload = ref None and seconds = ref None and trace = ref false in
      let rec parse = function
        | [] -> ()
        | "--runs" :: n :: rest -> runs := int_arg n; parse rest
        | "--seed" :: n :: rest -> seed := int_arg n; parse rest
        | "--json" :: p :: rest -> json := Some p; parse rest
        | "--workload" :: w :: rest -> workload := Some (workload_named w); parse rest
        | "--seconds" :: s :: rest -> seconds := Some (float_of_int (int_arg s)); parse rest
        | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
        | _ -> usage ()
      in
      parse args;
      if not (Sys.file_exists !expected_dir) then (
        Printf.eprintf "%s not found: run from the repository root\n" !expected_dir;
        exit 2);
      match !workload, !seconds with
      | Some w, Some seconds -> timed w ~seed:!seed ~seconds ~trace:!trace
      | None, None -> suite ~runs:!runs ~seed:!seed ~json:!json
      | _ -> usage ()
