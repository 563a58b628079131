(* Call-stack sampler: host CPU time per library layer, measured from
   outside the program.

   [start] arms ITIMER_PROF; each SIGPROF stores the OCaml call stack.
   OCaml 5 runs the handler at the next poll point, so GC work lands on
   the layer that allocated. [layer_samples] decodes the stacks after
   the run and charges each sample to the innermost frame whose source
   file is under [lib/<layer>/]: stdlib frames such as [List.find_opt]
   count toward their caller. Needs the [-g] debug info dune builds
   with by default. *)

(* The library directories under lib/, one layer each. *)
let layers =
  [
    "dcsim"; "tor"; "vswitch"; "shaping"; "nic"; "fabric"; "core"; "openflow";
    "rules"; "workloads"; "tcpmodel"; "compute"; "host"; "netcore"; "obs";
    "faults"; "experiments";
  ]

(* Samples whose stack holds no lib/ frame. *)
let other = "other"

(* 2^16 samples is over four minutes of CPU at the kernel's ~250 Hz. *)
let capacity = 1 lsl 16
let stacks = Array.make capacity (Printexc.get_callstack 0)
let taken = ref 0

(* A SIGPROF still pending when [stop] disarms the timer runs after the
   timed call has returned; it must not be charged. *)
let active = ref false

let on_sigprof _ =
  if !active && !taken < capacity then begin
    stacks.(!taken) <- Printexc.get_callstack 64;
    incr taken
  end

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  taken := 0;
  active := true;
  set_timer 0.001

let stop () =
  set_timer 0.0;
  active := false

let layer_of_file file =
  match String.split_on_char '/' file with
  | "lib" :: dir :: _ :: _ when List.mem dir layers -> Some dir
  | _ -> None

let layer_of_stack stack =
  let frame_layer slot =
    Option.bind (Printexc.Slot.location slot) (fun loc ->
        layer_of_file loc.Printexc.filename)
  in
  match Printexc.backtrace_slots stack with
  | None -> other
  | Some slots ->
      Option.value ~default:other (Array.find_map frame_layer slots)

(* Samples per layer, every layer and [other] listed, in [layers]
   order. *)
let layer_samples () =
  let counts = Hashtbl.create 32 in
  for i = 0 to !taken - 1 do
    let layer = layer_of_stack stacks.(i) in
    Hashtbl.replace counts layer
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts layer))
  done;
  List.map
    (fun l -> (l, Option.value ~default:0 (Hashtbl.find_opt counts l)))
    (layers @ [ other ])
