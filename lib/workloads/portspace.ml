(* Cyclic source-port allocator over a fixed range, backed by a bitset.
   The cursor sweeps the range so recently-released ports are the last
   to be reused — the kernel's ephemeral-port behavior — and a port held
   by a live flow is never handed out again, which is what keeps two
   concurrent flows from aliasing the same Fkey. *)

type t = {
  lo : int;
  size : int;
  live : Bytes.t;
  mutable cursor : int;
  mutable in_use : int;
}

(* The full non-privileged space. *)
let create () =
  let lo = 1024 and hi = 65536 in
  let size = hi - lo in
  {
    lo;
    size;
    live = Bytes.make ((size + 7) / 8) '\000';
    cursor = 0;
    in_use = 0;
  }

let get_bit t i = Char.code (Bytes.get t.live (i / 8)) land (1 lsl (i mod 8)) <> 0

let set_bit t i v =
  let b = Char.code (Bytes.get t.live (i / 8)) in
  let mask = 1 lsl (i mod 8) in
  Bytes.set t.live (i / 8)
    (Char.chr (if v then b lor mask else b land lnot mask))

let alloc t =
  if t.in_use >= t.size then None
  else begin
    (* Free slot guaranteed; sweep at most one full revolution. *)
    while get_bit t t.cursor do
      t.cursor <- (t.cursor + 1) mod t.size
    done;
    let i = t.cursor in
    set_bit t i true;
    t.in_use <- t.in_use + 1;
    t.cursor <- (t.cursor + 1) mod t.size;
    Some (t.lo + i)
  end

let release t port =
  let i = port - t.lo in
  if i < 0 || i >= t.size then invalid_arg "Portspace.release: out of range";
  if get_bit t i then begin
    set_bit t i false;
    t.in_use <- t.in_use - 1
  end

let is_live t port =
  let i = port - t.lo in
  i >= 0 && i < t.size && get_bit t i

let in_use t = t.in_use
let capacity t = t.size
