type t = {
  data : float array;
  (* Index of the slot the next push writes; the oldest live sample sits
     at [next - len] (mod capacity). *)
  mutable next : int;
  mutable len : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { data = Array.make capacity 0.0; next = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let push t x =
  let cap = Array.length t.data in
  t.data.(t.next) <- x;
  t.next <- (t.next + 1) mod cap;
  if t.len < cap then t.len <- t.len + 1

let latest t =
  if t.len = 0 then None
  else begin
    let cap = Array.length t.data in
    Some t.data.((t.next + cap - 1) mod cap)
  end

let iter f t =
  let cap = Array.length t.data in
  let start = (t.next + cap - t.len) mod cap in
  for i = 0 to t.len - 1 do
    f t.data.((start + i) mod cap)
  done

let fold f init t =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) t;
  !acc

let count keep t = fold (fun n x -> if keep x then n + 1 else n) 0 t

let filter_into keep t dst =
  let n = ref 0 in
  iter
    (fun x ->
      if keep x then begin
        dst.(!n) <- x;
        incr n
      end)
    t;
  !n
