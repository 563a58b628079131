type id = int

let none = 0
let next = ref 1

let start ~now ?(parent = none) ~kind ~name ~track () =
  if not (Trace.enabled ()) then none
  else begin
    let span = !next in
    incr next;
    Trace.emit ~now (Trace.Span_begin { span; parent; kind; name; track });
    span
  end

let finish ~now span ~outcome =
  if span <> none && Trace.enabled () then
    Trace.emit ~now (Trace.Span_end { span; outcome })

let reset () = next := 1
