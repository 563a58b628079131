(** Causal spans over the trace stream.

    A span is a named interval of sim time with an identity and an
    optional parent, emitted as a {!Trace.Span_begin}/{!Trace.Span_end}
    pair. The control plane opens one around every operation whose
    duration the paper's claims depend on — a directive's send→ack
    round trip, an offload's Pending→Installed/Failed install, a
    two-phase migration, an aggregate's measured lifetime — so a JSONL
    trace answers "how long did this take and what ran inside it"
    ({!Obs.Export} renders them as Perfetto slices).

    The zero-overhead contract of {!Trace} carries over: with no sink
    installed {!start} allocates nothing and returns {!none}, and
    {!finish} on {!none} is a no-op, so an instrumented call site costs
    one load and one branch when tracing is off. A span started while
    tracing was off therefore stays silent even if tracing is enabled
    before it finishes — spans never straddle sink changes. *)

type id = int
(** Span identity, unique within one process run (ids are allocated
    from a single stream, so they are unique across tracks too). *)

val none : id
(** The null span (0): never emitted, safe to [finish], and the
    [parent] of root spans in the wire encoding. *)

val start :
  now:Dcsim.Simtime.t ->
  ?parent:id ->
  kind:string ->
  name:string ->
  track:string ->
  unit ->
  id
(** Open a span and emit its {!Trace.Span_begin}. [kind] groups spans
    of one family (["directive"], ["install"], ["offload"],
    ["migration"], ["aggregate"]); [name] is the human label; [track]
    names the timeline row (a server name or ["tor"]); [now] is the
    opening instant on the caller's engine. Returns {!none} without
    emitting when tracing is off. *)

val finish : now:Dcsim.Simtime.t -> id -> outcome:string -> unit
(** Close a span at [now] with its outcome. No-op on {!none} or when
    tracing is off (an unfinished span is closed synthetically by the
    exporter at the trace's final instant). *)

val reset : unit -> unit
(** Restart id allocation from 1 (tests only — ids must stay unique
    within any one trace file). *)
