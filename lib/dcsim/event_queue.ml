(* A binary min-heap over parallel unboxed arrays. Positions [0, size)
   are the heap, keyed by [times], [seqs] and [slots]. [slots] is always
   a permutation of the slot indices: positions [size, capacity) hold
   the free slots, the next one to reuse at [size]. A slot keeps what
   stays put while the keys move: its payload and its position.

   The keys are immediates, so a sift moves a hole through int arrays
   and never runs the write barrier; only a payload cell is written,
   once on push and once on removal. Every index is in bounds by
   construction (positions and slots are below the capacity, and
   [cancel] checks the slot it decodes), so [a.(i)] skips the check. *)
module Array = struct
  include Array

  external get : 'a array -> int -> 'a = "%array_unsafe_get"
  external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
end

type 'a t = {
  mutable times : Simtime.t array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable positions : int array;
  mutable size : int;
  mutable next_seq : int;
}

(* [(seq lsl slot_bits) lor slot]. A slot outlives its occupant, so the
   occupant's sequence number tells a live handle from a stale one. *)
type handle = int

let slot_bits = 24
let max_slots = 1 lsl slot_bits
let max_seq = max_int lsr slot_bits

(* Fills vacated payload cells: the immediate [()] pins nothing, and a
   cell is read only while its slot is occupied. *)
let vacant () : 'a = Obj.magic ()

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    payloads = [||];
    positions = [||];
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0
let length t = t.size

(* Times compare as raw ints through [Simtime.t]'s [private int]
   coercion. Under [--profile dev], dune compiles every module with
   -opaque, so a cross-module call such as [Simtime.compare] is never
   inlined and would cost a real call per heap comparison. The default
   release build inlines it, but the comparison stays local so both
   profiles get the same code here. *)
let[@inline] before (ta : Simtime.t) (sa : int) (tb : Simtime.t) sb =
  let ta = (ta :> int) and tb = (tb :> int) in
  ta < tb || (ta = tb && sa < sb)

(* The sifts take the key arrays as arguments, so each step reads
   locals instead of reloading the record's mutable fields. *)
let[@inline] place (times : Simtime.t array) (seqs : int array)
    (slots : int array) (positions : int array) i time seq slot =
  times.(i) <- time;
  seqs.(i) <- seq;
  slots.(i) <- slot;
  positions.(slot) <- i

(* Both sifts carry the key being placed, move the hole past every entry
   it must pass, and write the key once, where the walk stops. *)
let rec sift_up times seqs slots positions i time seq slot =
  let p = (i - 1) / 2 in
  if i > 0 && before time seq times.(p) seqs.(p) then begin
    place times seqs slots positions i times.(p) seqs.(p) slots.(p);
    sift_up times seqs slots positions p time seq slot
  end
  else place times seqs slots positions i time seq slot

let rec sift_down times seqs slots positions size i time seq slot =
  let l = (2 * i) + 1 in
  let c =
    if l + 1 < size && before times.(l + 1) seqs.(l + 1) times.(l) seqs.(l)
    then l + 1
    else l
  in
  if c < size && before times.(c) seqs.(c) time seq then begin
    place times seqs slots positions i times.(c) seqs.(c) slots.(c);
    sift_down times seqs slots positions size c time seq slot
  end
  else place times seqs slots positions i time seq slot

let grow t =
  let capacity = Array.length t.slots in
  if capacity = max_slots then
    failwith "Event_queue.push: too many pending events for a handle";
  let added = Stdlib.min max_slots (Stdlib.max 16 (2 * capacity)) - capacity in
  let extend a filler = Array.append a (Array.make added filler) in
  (* Each new slot is free and starts at the position of its index. *)
  let fresh a = Array.append a (Array.init added (( + ) capacity)) in
  t.times <- extend t.times Simtime.zero;
  t.seqs <- extend t.seqs 0;
  t.payloads <- extend t.payloads (vacant ());
  t.slots <- fresh t.slots;
  t.positions <- fresh t.positions

let push t time payload =
  let seq = t.next_seq in
  if seq > max_seq then failwith "Event_queue.push: sequence numbers exhausted";
  if t.size = Array.length t.slots then grow t;
  let i = t.size in
  let slot = t.slots.(i) in
  t.next_seq <- seq + 1;
  t.size <- i + 1;
  t.payloads.(slot) <- payload;
  sift_up t.times t.seqs t.slots t.positions i time seq slot;
  (seq lsl slot_bits) lor slot

(* Remove the entry at position [i] and return its payload. The last
   entry fills the hole and sifts whichever way restores the order; the
   freed slot takes the last position, on top of the free ones. *)
let remove_at t i =
  let freed = t.slots.(i) and last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let time = t.times.(last) and seq = t.seqs.(last) and slot = t.slots.(last) in
    let p = (i - 1) / 2 in
    if i > 0 && before time seq t.times.(p) t.seqs.(p) then
      sift_up t.times t.seqs t.slots t.positions i time seq slot
    else sift_down t.times t.seqs t.slots t.positions last i time seq slot
  end;
  t.slots.(last) <- freed;
  t.positions.(freed) <- last;
  let payload = t.payloads.(freed) in
  t.payloads.(freed) <- vacant ();
  payload

let cancel t handle =
  let slot = handle land (max_slots - 1) in
  (* A free slot sits at or past [size]; a reused one holds a newer
     sequence number. *)
  let live =
    slot < Array.length t.positions
    &&
    let i = t.positions.(slot) in
    i < t.size && t.seqs.(i) = handle lsr slot_bits
  in
  if live then ignore (remove_at t t.positions.(slot));
  live

let min_time t = if t.size = 0 then Simtime.never else t.times.(0)

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  remove_at t 0
