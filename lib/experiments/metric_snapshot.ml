type recorded = { id : string; delta : (string * Obs.Metrics.value) list }

let recordings : recorded list ref = ref []

let record ~id f =
  let before = Obs.Metrics.snapshot () in
  let result = f () in
  let after = Obs.Metrics.snapshot () in
  recordings := { id; delta = Obs.Metrics.diff ~before ~after } :: !recordings;
  result

let all () = List.rev !recordings

let counter_delta ~before name =
  let value = function Some (Obs.Metrics.Counter_v n) -> n | _ -> 0 in
  value (Obs.Metrics.find name) - value (List.assoc_opt name before)

let write_json oc =
  output_string oc "{\n\"experiments\": {";
  List.iteri
    (fun i r ->
      if i > 0 then output_string oc ",";
      let b = Buffer.create 64 in
      Buffer.add_string b "\n\"";
      Obs.Trace.add_escaped b r.id;
      Buffer.add_string b "\": ";
      Buffer.output_buffer oc b;
      output_string oc (Obs.Metrics.to_json r.delta))
    (all ());
  output_string oc "\n},\n\"total\": ";
  output_string oc (Obs.Metrics.to_json (Obs.Metrics.snapshot ()));
  output_string oc "\n}\n"

let write_csv oc =
  output_string oc "experiment,name,kind,count,value,mean,min,max\n";
  let emit_block exp values =
    (* Reuse the registry's CSV codec, dropping its header and
       prefixing each row with the experiment id. *)
    String.split_on_char '\n' (Obs.Metrics.to_csv values)
    |> List.iteri (fun i line ->
           if i > 0 && line <> "" then
             output_string oc (exp ^ "," ^ line ^ "\n"))
  in
  List.iter (fun r -> emit_block r.id r.delta) (all ());
  emit_block "total" (Obs.Metrics.snapshot ())
