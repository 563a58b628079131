module Simtime = Dcsim.Simtime

(* A fixed-capacity ring of the most recent trace events. Slots are two
   parallel preallocated arrays (nanosecond stamps and event values), so
   recording is two array stores plus index arithmetic: no allocation,
   no encoding, cheap enough to leave on for every run. Encoding happens
   only when a dump is asked for (crash, strict violation, end of run).

   The event stored in a slot is the same immutable value the emitter
   built for the sink chain, so retaining it is free and read-only. *)

type t = {
  times : int array;  (* Simtime.to_ns of each slot *)
  events : Trace.event array;
  mutable next : int;  (* slot the next record goes into *)
  mutable filled : int;  (* live slots, <= capacity *)
}

(* Placeholder for unfilled slots; never returned. *)
let dummy = Trace.Ctrl_drop { channel = "" }

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Obs.Flight.create: capacity must be >= 1";
  {
    times = Array.make capacity 0;
    events = Array.make capacity dummy;
    next = 0;
    filled = 0;
  }

let capacity t = Array.length t.events
let length t = t.filled

let clear t =
  Array.fill t.events 0 (Array.length t.events) dummy;
  t.next <- 0;
  t.filled <- 0

let record t now ev =
  t.times.(t.next) <- Simtime.to_ns now;
  t.events.(t.next) <- ev;
  let n = t.next + 1 in
  t.next <- (if n = Array.length t.events then 0 else n);
  if t.filled < Array.length t.events then t.filled <- t.filled + 1

(* Oldest-first iteration over the live slots. *)
let iter_oldest t f =
  let cap = Array.length t.events in
  let start = if t.filled < cap then 0 else t.next in
  for i = 0 to t.filled - 1 do
    let j =
      let k = start + i in
      if k >= cap then k - cap else k
    in
    f (Simtime.of_ns t.times.(j)) t.events.(j)
  done

let events t =
  let acc = ref [] in
  iter_oldest t (fun at ev -> acc := (at, ev) :: !acc);
  List.rev !acc

let last t n =
  let keep = min n t.filled in
  let skip = t.filled - keep in
  let acc = ref [] and i = ref 0 in
  iter_oldest t (fun at ev ->
      if !i >= skip then acc := (at, ev) :: !acc;
      incr i);
  List.rev !acc

(* --- Installation: the always-on tee --- *)

type installed_state = { ring : t; dump_path : string option }

let installed_ref : installed_state option ref = ref None

let install ?dump_path t =
  installed_ref := Some { ring = t; dump_path };
  Trace.use_tee (fun now ev -> record t now ev)

let installed () =
  match !installed_ref with Some { ring; _ } -> Some ring | None -> None

let uninstall () = installed_ref := None

(* --- JSONL dumps (the format Obs.Export consumes) --- *)

let dump_jsonl t oc =
  let b = Buffer.create 256 in
  let n = ref 0 in
  iter_oldest t (fun at ev ->
      Buffer.clear b;
      Trace.encode_into b at ev;
      Buffer.add_char b '\n';
      Buffer.output_buffer oc b;
      incr n);
  !n

(* [flight.jsonl] with tag "crash" becomes [flight.crash.jsonl]. *)
let tagged path = function
  | None -> path
  | Some tag ->
      Filename.remove_extension path ^ "." ^ tag ^ Filename.extension path

let dump_installed ?tag () =
  match !installed_ref with
  | Some { ring; dump_path = Some path } ->
      let path = tagged path tag in
      let oc = open_out path in
      let n = dump_jsonl ring oc in
      close_out oc;
      Some (path, n)
  | Some { dump_path = None; _ } | None -> None
