(* A circular array whose capacity is zero or a power of two. The
   oldest element sits at [head] and the [i]th at
   [(head + i) land (capacity - 1)]; a full array doubles, unrolled to
   start at index 0. A popped slot is overwritten at once, so an
   element the queue has handed back is no longer reachable from it. *)
type 'a t = { mutable data : 'a array; mutable head : int; mutable len : int }

(* Fills vacated slots: the immediate [()] pins nothing, and a slot is
   read only while it holds an element. *)
let vacant () : 'a = Obj.magic ()

let create () = { data = [||]; head = 0; len = 0 }
let length t = t.len
let is_empty t = t.len = 0

let grow t =
  let capacity = Array.length t.data in
  let data = Array.make (Stdlib.max 8 (2 * capacity)) (vacant ()) in
  let first = capacity - t.head in
  Array.blit t.data t.head data 0 first;
  Array.blit t.data 0 data first t.head;
  t.data <- data;
  t.head <- 0

let push t x =
  if t.len = Array.length t.data then grow t;
  t.data.((t.head + t.len) land (Array.length t.data - 1)) <- x;
  t.len <- t.len + 1

let peek t =
  if t.len = 0 then invalid_arg "Fifo.peek: empty";
  t.data.(t.head)

let pop t =
  if t.len = 0 then invalid_arg "Fifo.pop: empty";
  let x = t.data.(t.head) in
  t.data.(t.head) <- vacant ();
  t.head <- (t.head + 1) land (Array.length t.data - 1);
  t.len <- t.len - 1;
  x
