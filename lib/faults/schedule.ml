module Simtime = Dcsim.Simtime

type window = { down_from : Simtime.t; down_until : Simtime.t }
type trigger = { fire_at : Simtime.t; drop_next : int }

type t = {
  drop : float;
  duplicate : float;
  reorder : float;
  jitter : Simtime.span;
  windows : window list;
  triggers : trigger list;
  tcam_install_fail : float;
  tcam_soft_error : float;
}

let none =
  {
    drop = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    jitter = Simtime.span_zero;
    windows = [];
    triggers = [];
    tcam_install_fail = 0.0;
    tcam_soft_error = 0.0;
  }

let has_channel_faults t =
  t.drop > 0.0 || t.duplicate > 0.0 || t.reorder > 0.0
  || Simtime.span_to_ns t.jitter > 0
  || t.windows <> [] || t.triggers <> []

let has_tcam_faults t = t.tcam_install_fail > 0.0 || t.tcam_soft_error > 0.0
let is_none t = not (has_channel_faults t) && not (has_tcam_faults t)

let lossy ?(drop = 0.05) ?(duplicate = 0.01) ?(reorder = 0.02)
    ?(jitter = Simtime.span_us 200.0) () =
  { none with drop; duplicate; reorder; jitter }

(* --- Textual syntax ---

   Comma-separated key=value items:
     drop=P dup=P reorder=P        probabilities in [0,1]
     jitter_us=F                   uniform extra delay bound
     down=FROM:UNTIL               link-down window, seconds (repeatable)
     dropnext=AT:N                 at AT seconds drop the next N messages
     tcam_fail=P                   per-install TCAM failure probability
     tcam_soft=P                   per-100ms-per-VRF soft-error probability *)

let prob_item key v =
  match float_of_string_opt v with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | _ -> Error (Printf.sprintf "%s: expected probability in [0,1], got %S" key v)

(* [Simtime] counts whole nanoseconds in an [int], and [Simtime.of_sec]
   and [Simtime.span_us] wrap a non-finite or over-range float instead
   of failing: [inf] and [1e12] seconds both become 0. So every time in
   a spec, in seconds ([ns_per] 1e9) or microseconds (1e3), must be
   finite, non-negative and below [Simtime.never]. NaN fails the first
   comparison and infinity the second. *)
let time_item key ~ns_per ~unit v =
  let limit_ns = float_of_int (Simtime.to_ns Simtime.never) in
  match float_of_string_opt v with
  | Some x when x >= 0.0 && x *. ns_per < limit_ns -> Ok x
  | _ ->
      Error
        (Printf.sprintf "%s: expected a time in [0, %g) %s, got %S" key
           (limit_ns /. ns_per) unit v)

let of_string s =
  let ( let* ) = Result.bind in
  let items =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  List.fold_left
    (fun acc item ->
      let* t = acc in
      match String.index_opt item '=' with
      | None -> Error (Printf.sprintf "bad item %S (want key=value)" item)
      | Some i -> (
          let key = String.sub item 0 i in
          let v = String.sub item (i + 1) (String.length item - i - 1) in
          match key with
          | "drop" ->
              let* p = prob_item key v in
              Ok { t with drop = p }
          | "dup" ->
              let* p = prob_item key v in
              Ok { t with duplicate = p }
          | "reorder" ->
              let* p = prob_item key v in
              Ok { t with reorder = p }
          | "jitter_us" ->
              let* us = time_item key ~ns_per:1e3 ~unit:"us" v in
              Ok { t with jitter = Simtime.span_us us }
          | "down" -> (
              match String.split_on_char ':' v with
              | [ a; b ] ->
                  let* from_s = time_item key ~ns_per:1e9 ~unit:"s" a in
                  let* until_s = time_item key ~ns_per:1e9 ~unit:"s" b in
                  if until_s > from_s then
                    Ok
                      {
                        t with
                        windows =
                          t.windows
                          @ [
                              {
                                down_from = Simtime.of_sec from_s;
                                down_until = Simtime.of_sec until_s;
                              };
                            ];
                      }
                  else
                    Error
                      (Printf.sprintf
                         "down: window %S can never fire (want 0 <= FROM < \
                          UNTIL, got FROM=%g UNTIL=%g)"
                         v from_s until_s)
              | _ -> Error (Printf.sprintf "down: want FROM:UNTIL seconds, got %S" v))
          | "dropnext" -> (
              match String.split_on_char ':' v with
              | [ a; n ] -> (
                  let* at = time_item key ~ns_per:1e9 ~unit:"s" a in
                  match int_of_string_opt n with
                  | Some count when count > 0 ->
                      Ok
                        {
                          t with
                          triggers =
                            t.triggers
                            @ [ { fire_at = Simtime.of_sec at; drop_next = count } ];
                        }
                  | _ -> Error (Printf.sprintf "dropnext: bad trigger %S" v))
              | _ -> Error (Printf.sprintf "dropnext: want AT:COUNT, got %S" v))
          | "tcam_fail" ->
              let* p = prob_item key v in
              Ok { t with tcam_install_fail = p }
          | "tcam_soft" ->
              let* p = prob_item key v in
              Ok { t with tcam_soft_error = p }
          | _ -> Error (Printf.sprintf "unknown fault key %S" key)))
    (Ok none) items

let profile = function
  | "none" -> Ok none
  | "lossy" -> Ok (lossy ())
  | "chaos" ->
      Ok
        {
          (lossy ~drop:0.10 ~duplicate:0.02 ~reorder:0.05
             ~jitter:(Simtime.span_us 500.0) ())
          with
          windows =
            [ { down_from = Simtime.of_sec 1.0; down_until = Simtime.of_sec 1.3 } ];
        }
  | "smoke" ->
      (* Tiny but representative: enough loss to exercise retries in a
         couple of simulated seconds without slowing CI. *)
      Ok (lossy ~drop:0.15 ~duplicate:0.05 ~reorder:0.05 ~jitter:(Simtime.span_us 300.0) ())
  | "fabric" ->
      (* Data-plane chaos: a mid-run express-lane outage long enough to
         trip lane-down detection, steady loss, and TCAM failure modes.
         Meant for the fabric uplinks of the fabric-chaos experiment. *)
      Ok
        {
          (lossy ~drop:0.02 ~duplicate:0.01 ~reorder:0.02
             ~jitter:(Simtime.span_us 100.0) ())
          with
          windows =
            [ { down_from = Simtime.of_sec 1.0; down_until = Simtime.of_sec 1.6 } ];
          tcam_install_fail = 0.05;
          tcam_soft_error = 0.02;
        }
  | other -> of_string other

let to_string t =
  let b = Buffer.create 64 in
  let item fmt = Printf.ksprintf (fun s ->
      if Buffer.length b > 0 then Buffer.add_char b ',';
      Buffer.add_string b s) fmt
  in
  if t.drop > 0.0 then item "drop=%g" t.drop;
  if t.duplicate > 0.0 then item "dup=%g" t.duplicate;
  if t.reorder > 0.0 then item "reorder=%g" t.reorder;
  if Simtime.span_to_ns t.jitter > 0 then item "jitter_us=%g" (Simtime.span_to_us t.jitter);
  List.iter
    (fun w ->
      item "down=%g:%g" (Simtime.to_sec w.down_from) (Simtime.to_sec w.down_until))
    t.windows;
  List.iter
    (fun tr -> item "dropnext=%g:%d" (Simtime.to_sec tr.fire_at) tr.drop_next)
    t.triggers;
  if t.tcam_install_fail > 0.0 then item "tcam_fail=%g" t.tcam_install_fail;
  if t.tcam_soft_error > 0.0 then item "tcam_soft=%g" t.tcam_soft_error;
  if Buffer.length b = 0 then "none" else Buffer.contents b
