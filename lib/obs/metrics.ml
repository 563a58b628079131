module Stats = Dcsim.Stats

type counter = { mutable c : int }
type gauge = { mutable g : float }
type summary = Stats.Summary.t

type instrument = Counter of counter | Gauge of gauge | Summary of summary

type t = {
  instruments : (string, instrument) Hashtbl.t;
  (* Family handles by base name, so re-declaring a family anywhere in
     the program returns the one shared handle (and hence one shared
     key cache — [labeled_counter_values] sees every key no matter
     which call site touched it). Families register their per-value
     series in [instruments] under "base{label=\"value\"}" names; this
     table remembers the bases themselves so tooling (the METRICS.md
     drift check) can enumerate them even before any value is seen. *)
  families : (string, counter_family) Hashtbl.t;
}

(* A bounded set of per-label-value counters sharing one base name; see
   the "Labeled families" section below for the operations. *)
and counter_family = {
  f_registry : t;
  f_name : string;
  f_label : string;
  f_render : int -> string;
  f_cache : (int, counter) Hashtbl.t;
  mutable f_overflow : counter option;
}

let create () : t =
  {
    instruments = Hashtbl.create 64;
    families = Hashtbl.create 8;
  }
let default : t = create ()

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Summary _ -> "summary"

let get_or_create registry name ~make ~select =
  match Hashtbl.find_opt registry.instruments name with
  | Some existing -> (
      match select existing with
      | Some i -> i
      | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %S already registered as a %s" name
               (kind_name existing)))
  | None ->
      let i = make () in
      Hashtbl.replace registry.instruments name
        (match i with
        | `C c -> Counter c
        | `G g -> Gauge g
        | `S s -> Summary s);
      i

let counter ?(registry = default) name =
  match
    get_or_create registry name
      ~make:(fun () -> `C { c = 0 })
      ~select:(function Counter c -> Some (`C c) | _ -> None)
  with
  | `C c -> c
  | _ -> assert false

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let gauge ?(registry = default) name =
  match
    get_or_create registry name
      ~make:(fun () -> `G { g = 0.0 })
      ~select:(function Gauge g -> Some (`G g) | _ -> None)
  with
  | `G g -> g
  | _ -> assert false

let set_gauge g v = g.g <- v
let gauge_value g = g.g

let summary ?(registry = default) name =
  match
    get_or_create registry name
      ~make:(fun () -> `S (Stats.Summary.create ()))
      ~select:(function Summary s -> Some (`S s) | _ -> None)
  with
  | `S s -> s
  | _ -> assert false

let observe s v = Stats.Summary.add s v

(* --- Labeled families ---

   A family is a bounded set of per-label-value series sharing one base
   name, registered in the ordinary instrument table under
   "base{label=\"value\"}". Values are keyed by int on the hot path
   (tenant ids, rack indexes, path ranks) so the steady-state lookup is
   one int-keyed Hashtbl.find — no string building, no allocation.
   Once [series_per_family] distinct values exist, further values share one
   overflow series labeled "__other__", keeping cardinality bounded no
   matter what the workload does. *)

let series_per_family = 64
let overflow_label = "__other__"

let escape_label v =
  if
    String.for_all (fun c -> c <> '"' && c <> '\\' && c <> '\n' && c <> '}') v
  then v
  else begin
    let b = Buffer.create (String.length v + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '}' -> Buffer.add_string b "\\}"
        | c -> Buffer.add_char b c)
      v;
    Buffer.contents b
  end

let labeled_name name label value =
  Printf.sprintf "%s{%s=\"%s\"}" name label (escape_label value)

let base_name name =
  match String.index_opt name '{' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Get-or-create: a family declared under one name anywhere in the
   program is the same family everywhere (one shared key cache), so a
   module sampling [labeled_counter_values] sees keys touched at every
   other call site. The first declaration fixes the render; a re-open
   only has to agree on the label. *)
let counter_family ?(registry = default) ~label ?(render = string_of_int) name =
  match Hashtbl.find_opt registry.families name with
  | Some fam ->
      if not (String.equal fam.f_label label) then
        invalid_arg
          (Printf.sprintf
             "Obs.Metrics: family %S already declared with label %S" name
             fam.f_label);
      fam
  | None ->
      let fam =
        {
          f_registry = registry;
          f_name = name;
          f_label = label;
          f_render = render;
          f_cache = Hashtbl.create 16;
          f_overflow = None;
        }
      in
      Hashtbl.replace registry.families name fam;
      fam

let labeled_counter fam key =
  try Hashtbl.find fam.f_cache key
  with Not_found ->
    if Hashtbl.length fam.f_cache >= series_per_family then (
      match fam.f_overflow with
      | Some i -> i
      | None ->
          let i =
            counter ~registry:fam.f_registry
              (labeled_name fam.f_name fam.f_label overflow_label)
          in
          fam.f_overflow <- Some i;
          i)
    else begin
      let i =
        counter ~registry:fam.f_registry
          (labeled_name fam.f_name fam.f_label (fam.f_render key))
      in
      Hashtbl.replace fam.f_cache key i;
      i
    end

let labeled_counter_values fam =
  Hashtbl.fold (fun key c acc -> (key, c.c) :: acc) fam.f_cache []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let family_names ?(registry = default) () =
  Hashtbl.fold
    (fun name fam acc -> (name, fam.f_label) :: acc)
    registry.families []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Summary_v of {
      count : int;
      sum : float;
      mean : float;
      vmin : float;
      vmax : float;
    }

let value_of = function
  | Counter c -> Counter_v c.c
  | Gauge g -> Gauge_v g.g
  | Summary s ->
      Summary_v
        {
          count = Stats.Summary.count s;
          sum = Stats.Summary.sum s;
          mean = Stats.Summary.mean s;
          (* nan when empty; json_f renders it as null. *)
          vmin = Stats.Summary.min s;
          vmax = Stats.Summary.max s;
        }

let snapshot ?(registry = default) () =
  Hashtbl.fold
    (fun name i acc -> (name, value_of i) :: acc)
    registry.instruments []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find ?(registry = default) name =
  Option.map value_of (Hashtbl.find_opt registry.instruments name)

let diff ~before ~after =
  List.filter_map
    (fun (name, v_after) ->
      let v_before = List.assoc_opt name before in
      match (v_before, v_after) with
      | Some (Counter_v b), Counter_v a ->
          if a = b then None else Some (name, Counter_v (a - b))
      | Some (Summary_v b), Summary_v a ->
          if a.count = b.count then None
          else
            let count = a.count - b.count in
            let sum = a.sum -. b.sum in
            Some
              ( name,
                Summary_v
                  {
                    count;
                    sum;
                    mean = (if count = 0 then 0.0 else sum /. float_of_int count);
                    vmin = a.vmin;
                    vmax = a.vmax;
                  } )
      | Some (Gauge_v b), Gauge_v a ->
          if a = b then None else Some (name, v_after)
      | Some _, _ -> Some (name, v_after)
      | None, _ -> Some (name, v_after))
    after

let json_f v =
  (* JSON has no infinities; clamp the unlimited-rate sentinels. *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else if Float.is_nan v then "null"
  else if v = infinity then "1e308"
  else if v = neg_infinity then "-1e308"
  else Printf.sprintf "%.9g" v

let to_json values =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n  \"";
      Trace.add_escaped b name;
      Buffer.add_string b "\": ";
      match v with
      | Counter_v c -> Buffer.add_string b (string_of_int c)
      | Gauge_v g -> Buffer.add_string b (json_f g)
      | Summary_v { count; sum; mean; vmin; vmax } ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"count\":%d,\"sum\":%s,\"mean\":%s,\"min\":%s,\"max\":%s}" count
               (json_f sum) (json_f mean) (json_f vmin) (json_f vmax)))
    values;
  Buffer.add_string b "\n}";
  Buffer.contents b

let csv_f v = Printf.sprintf "%.9g" v

let to_csv values =
  let b = Buffer.create 1024 in
  Buffer.add_string b "name,kind,count,value,mean,min,max\n";
  List.iter
    (fun (name, v) ->
      let row =
        match v with
        | Counter_v c -> Printf.sprintf "%s,counter,%d,%d,,," name c c
        | Gauge_v g -> Printf.sprintf "%s,gauge,1,%s,,," name (csv_f g)
        | Summary_v { count; sum; mean; vmin; vmax } ->
            Printf.sprintf "%s,summary,%d,%s,%s,%s,%s" name count (csv_f sum)
              (csv_f mean) (csv_f vmin) (csv_f vmax)
      in
      Buffer.add_string b row;
      Buffer.add_char b '\n')
    values;
  Buffer.contents b
