type 'a entry = {
  time : Simtime.t;
  seq : int;
  payload : 'a;
  mutable cancelled : bool;
  (* Set once the entry has permanently left the heap (popped, or
     dropped during lazy deletion / compaction). Distinguishing
     "cancelled" from "consumed" makes cancel-after-fire and
     double-cancel safe no-ops: neither touches [live] twice. *)
  mutable consumed : bool;
}

type 'a t = {
  mutable heap : 'a entry array;
  (* [heap] has [size] live slots; slots >= [size] always hold the
     shared dummy entry so popped payloads (often closures) are not
     retained by the array. *)
  mutable size : int;
  mutable next_seq : int;
  mutable live : int;
}

type handle = Obj.t
(* The handle is the entry itself, hidden behind Obj.t so the interface
   need not expose the payload type parameter. Cancellation just flips
   the entry's flag; the heap drops cancelled entries lazily on pop, or
   eagerly when they come to dominate (see [maybe_compact]). *)

(* One shared filler for vacated slots. Its payload is (), an
   immediate, so it pins nothing; it is never read as a live entry
   because slots >= [size] are never accessed. *)
let shared_dummy : Obj.t entry =
  {
    time = Simtime.zero;
    seq = min_int;
    payload = Obj.repr ();
    cancelled = true;
    consumed = true;
  }

let dummy () : 'a entry = Obj.magic shared_dummy

let create () = { heap = [||]; size = 0; next_seq = 0; live = 0 }
let is_empty t = t.live = 0
let length t = t.live

(* Times compare as raw ints through [Simtime.t]'s [private int]
   coercion. dune's dev profile compiles every module with -opaque, so
   a cross-module call such as [Simtime.compare] is never inlined and
   would cost a real call per heap comparison. *)
let before a b =
  let ta = (a.time :> int) and tb = (b.time :> int) in
  ta < tb || (ta = tb && a.seq < b.seq)

(* Both sifts move a hole rather than swapping: [e] is written once,
   into the slot where the walk stops. *)
let rec sift_up heap i e =
  if i = 0 then heap.(0) <- e
  else
    let parent = (i - 1) / 2 in
    let p = heap.(parent) in
    if before e p then begin
      heap.(i) <- p;
      sift_up heap parent e
    end
    else heap.(i) <- e

let rec sift_down heap size i e =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- e
  else
    let r = l + 1 in
    let c = if r < size && before heap.(r) heap.(l) then r else l in
    let child = heap.(c) in
    if before child e then begin
      heap.(i) <- child;
      sift_down heap size c e
    end
    else heap.(i) <- e

let grow t =
  let capacity = Array.length t.heap in
  if t.size = capacity then begin
    let new_capacity = Stdlib.max 16 (2 * capacity) in
    let heap = Array.make new_capacity (dummy ()) in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end

let push t time payload =
  let entry = { time; seq = t.next_seq; payload; cancelled = false; consumed = false } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  t.size <- t.size + 1;
  t.live <- t.live + 1;
  sift_up t.heap (t.size - 1) entry;
  Obj.repr entry

(* Drop every cancelled entry in one pass and re-heapify. O(size);
   amortised against the cancellations that triggered it. *)
let compact t =
  let old_size = t.size in
  let j = ref 0 in
  for i = 0 to old_size - 1 do
    let e = t.heap.(i) in
    if e.cancelled then e.consumed <- true
    else begin
      t.heap.(!j) <- e;
      incr j
    end
  done;
  t.size <- !j;
  Array.fill t.heap t.size (old_size - t.size) (dummy ());
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t.heap t.size i t.heap.(i)
  done;
  (* Shed capacity the burst of cancellations no longer needs. *)
  let capacity = Array.length t.heap in
  if capacity > 16 && t.size * 4 < capacity then
    t.heap <- Array.sub t.heap 0 (Stdlib.max 16 (capacity / 2))

let compact_threshold = 64

let maybe_compact t =
  if t.size >= compact_threshold && 2 * t.live < t.size then compact t

let cancel t handle =
  let entry : 'a entry = Obj.obj handle in
  if entry.cancelled || entry.consumed then false
  else begin
    entry.cancelled <- true;
    t.live <- t.live - 1;
    maybe_compact t;
    true
  end

(* Remove the root of a non-empty heap; the last entry fills the hole. *)
let remove_top t =
  let top = t.heap.(0) in
  let last = t.size - 1 in
  let filler = t.heap.(last) in
  t.heap.(last) <- dummy ();
  t.size <- last;
  if last > 0 then sift_down t.heap last 0 filler;
  top.consumed <- true;
  top

let rec min_time t =
  if t.size = 0 then Simtime.never
  else
    let top = t.heap.(0) in
    if top.cancelled then begin
      (* Discard the cancelled top so repeated calls stay cheap. *)
      ignore (remove_top t);
      min_time t
    end
    else top.time

let pop_min t =
  if t.live = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  (* With a live entry left, [min_time] leaves one at the root. *)
  ignore (min_time t);
  t.live <- t.live - 1;
  (remove_top t).payload

let peek_time t = if t.live = 0 then None else Some (min_time t)

let pop t =
  if t.live = 0 then None
  else
    let time = min_time t in
    Some (time, pop_min t)
