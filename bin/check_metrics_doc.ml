(* check_metrics_doc: fails when docs/METRICS.md drifts from the
   metrics registry, in either direction.

   The binary links every simulator library with -linkall, so each
   module-initialisation metric registration has run by the time main
   starts; the default registry then IS the runtime catalogue. Every
   registered instrument name (labeled series collapse to their base
   name) and every declared labeled family must be mentioned in
   docs/METRICS.md — a new counter without documentation fails the
   build. Conversely, every metrics-table row whose Kind is counter,
   gauge or summary must name a registered instrument or family — a
   row left behind by a deleted metric fails the build too.

   Run from the `metrics-doc` dune alias, part of tier-1 runtest. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains_word haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let boundary c =
    not
      ((c >= 'a' && c <= 'z')
      || (c >= '0' && c <= '9')
      || (c >= 'A' && c <= 'Z')
      || c = '_')
  in
  let rec scan i =
    if i + ln > lh then false
    else if
      String.sub haystack i ln = needle
      && (i = 0 || boundary haystack.[i - 1])
      && (i + ln = lh || boundary haystack.[i + ln])
    then true
    else scan (i + 1)
  in
  scan 0

(* Instruments the simulator creates with run-dependent names; their
   naming schemes are documented as patterns, not as every instance. *)
let dynamic_name name =
  let prefixed p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  prefixed "tenant."

(* The names of the metrics-table rows: [| `name` | kind | ...] lines
   whose kind cell starts with counter, gauge or summary. *)
let documented_rows doc =
  String.split_on_char '\n' doc
  |> List.filter_map (fun line ->
         match List.map String.trim (String.split_on_char '|' line) with
         | "" :: name :: kind :: _
           when String.length name > 2
                && name.[0] = '`'
                && name.[String.length name - 1] = '`'
                && List.exists
                     (fun prefix -> String.starts_with ~prefix kind)
                     [ "counter"; "gauge"; "summary" ] ->
             Some (String.sub name 1 (String.length name - 2))
         | _ -> None)

let () =
  if Array.length Sys.argv <> 2 then begin
    prerr_endline "usage: check_metrics_doc docs/METRICS.md";
    exit 2
  end;
  let doc = read_file Sys.argv.(1) in
  let names =
    List.map (fun (n, _) -> Obs.Metrics.base_name n) (Obs.Metrics.snapshot ())
    @ List.map fst (Obs.Metrics.family_names ())
  in
  let names =
    List.sort_uniq String.compare (List.filter (fun n -> not (dynamic_name n)) names)
  in
  (* -linkall must have pulled in the emitters; a near-empty registry
     means the link is broken, not that the catalogue shrank. *)
  if List.length names < 20 then begin
    Printf.eprintf
      "check_metrics_doc: only %d registered metrics visible — is -linkall \
       in effect?\n"
      (List.length names);
    exit 2
  end;
  let missing = List.filter (fun n -> not (contains_word doc n)) names in
  List.iter
    (Printf.eprintf
       "check_metrics_doc: metric %S is registered at runtime but not \
        documented in docs/METRICS.md\n")
    missing;
  let stale = List.filter (fun n -> not (List.mem n names)) (documented_rows doc) in
  List.iter
    (Printf.eprintf
       "check_metrics_doc: docs/METRICS.md documents metric %S, which \
        nothing registers\n")
    stale;
  if missing <> [] || stale <> [] then exit 1
