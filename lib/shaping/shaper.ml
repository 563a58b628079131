module Simtime = Dcsim.Simtime
module Engine = Dcsim.Engine
module Fifo = Dcsim.Fifo
module Packet = Netcore.Packet

type t = {
  engine : Engine.t;
  bucket : Token_bucket.t;
  forward : Packet.t -> unit;
  size_of : Packet.t -> int;
  queue : Packet.t Fifo.t;
  mutable draining : bool;
  mutable forwarded : int;
  mutable forwarded_bytes : int;
  mutable backlog_since : Simtime.t option;
  mutable backlog_ns : int;
}

let create ~engine ~spec ~forward ?(size_of = Packet.wire_size) () =
  {
    engine;
    bucket = Token_bucket.create spec ~now:(Engine.now engine);
    forward;
    size_of;
    queue = Fifo.create ();
    draining = false;
    forwarded = 0;
    forwarded_bytes = 0;
    backlog_since = None;
    backlog_ns = 0;
  }

let note_backlog_start t =
  if t.backlog_since = None then t.backlog_since <- Some (Engine.now t.engine)

let note_backlog_end t =
  match t.backlog_since with
  | None -> ()
  | Some since ->
      let now = Engine.now t.engine in
      t.backlog_ns <- t.backlog_ns + Simtime.span_to_ns (Simtime.diff now since);
      t.backlog_since <- None

let rec drain t =
  if Fifo.is_empty t.queue then begin
    t.draining <- false;
    note_backlog_end t
  end
  else
    let pkt = Fifo.peek t.queue in
    let now = Engine.now t.engine in
    let bytes_len = t.size_of pkt in
    if Token_bucket.try_consume t.bucket ~now ~bytes_len then begin
      ignore (Fifo.pop t.queue);
      t.forwarded <- t.forwarded + 1;
      t.forwarded_bytes <- t.forwarded_bytes + bytes_len;
      t.forward pkt;
      drain t
    end
    else begin
      let wait = Token_bucket.time_until_conform t.bucket ~now ~bytes_len in
      (* Guard against a zero wait produced by rounding: retry one
         microsecond later rather than spinning. *)
      let wait =
        if Simtime.span_to_ns wait <= 0 then Simtime.span_us 1.0 else wait
      in
      ignore (Engine.after t.engine wait (fun () -> drain t))
    end

let enqueue t pkt =
  Fifo.push t.queue pkt;
  if not t.draining then begin
    t.draining <- true;
    note_backlog_start t;
    drain t
  end

let set_spec t spec =
  Token_bucket.set_spec t.bucket spec ~now:(Engine.now t.engine);
  (* A pending drain wakeup may have been computed against the old
     rate; re-evaluate now. Concurrent wakeups are safe: each re-checks
     the queue and the bucket before forwarding. *)
  if t.draining then drain t
let spec t = Token_bucket.spec t.bucket
let forwarded t = t.forwarded
let forwarded_bytes t = t.forwarded_bytes

let backlogged_seconds t =
  let live =
    match t.backlog_since with
    | None -> 0
    | Some since ->
        Simtime.span_to_ns (Simtime.diff (Engine.now t.engine) since)
  in
  float_of_int (t.backlog_ns + live) /. 1e9
