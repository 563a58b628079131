type t = { state : Random.State.t }

let create ~seed = { state = Random.State.make [| seed; 0x5eed; 0xfa57 |] }

let split t label =
  (* Derive a child seed from the parent stream and the label so that
     streams with different labels are decorrelated, and re-splitting
     with the same label from a fresh parent is reproducible. *)
  let h = Hashtbl.hash label in
  let s1 = Random.State.bits t.state in
  { state = Random.State.make [| h; s1; 0x51b1 |] }

let int t bound =
  assert (bound > 0);
  Random.State.int t.state bound

let float t bound = Random.State.float t.state bound

let uniform_span t span =
  let ns = Simtime.span_to_ns span in
  if ns <= 0 then Simtime.span_zero else Simtime.span_ns (int t ns)

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let pareto t ~shape ~scale =
  let u = 1.0 -. float t 1.0 in
  scale /. (u ** (1.0 /. shape))
