(* Host-speed probe. On a shared 2-vCPU virtual machine (Intel Xeon,
   2.0 GHz) a fixed computation ran anywhere from 1x to 2x slower from
   one minute to the next, so wall times from different minutes cannot
   be compared directly. The probe is a fixed computation with the simulator's mix
   of work: a binary heap of timestamped records, hashtable updates and
   short-lived allocation. It runs in its own process just before every
   measured child, and [wall_rel] is the child's wall time over the
   probe's. It uses no library of this repository, so no change to the
   simulator moves it.

   Its working set stays in cache. Over 15 minutes of probes interleaved
   with all four workloads, the spread of per-minute medians of
   wall/probe was 3-9% with this probe, against 6-12% for the same code
   over a few MB and 15-18% for raw wall time. *)

type ev = { time : float; key : int }

let n = 1 lsl 6

let work () =
  let heap = Array.make n { time = 0.0; key = 0 } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).time > e.time do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < !size && heap.(l + 1).time < heap.(l).time then l + 1 else l
      in
      if c < !size && heap.(c).time < last.time then (
        heap.(!i) <- heap.(c);
        i := c)
      else sifting := false
    done;
    heap.(!i) <- last;
    top
  in
  let state = ref 42 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let table = Hashtbl.create n in
  for key = 0 to n - 1 do
    push { time = float_of_int (rand ()); key }
  done;
  for _ = 1 to 400_000 do
    let e = pop () in
    let k = ((e.key * 7919) + rand ()) land ((4 * n) - 1) in
    (match Hashtbl.find_opt table k with
    | Some l when List.length l < 4 -> Hashtbl.replace table k (e.key :: l)
    | _ -> Hashtbl.replace table k [ e.key ]);
    push { time = e.time +. float_of_int (rand () land 0xffff); key = k land (n - 1) }
  done

(* Seconds the fixed computation takes on this host now. *)
let run () =
  let t0 = Unix.gettimeofday () in
  work ();
  Unix.gettimeofday () -. t0
