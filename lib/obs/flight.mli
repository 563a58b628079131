(** Always-on flight recorder: a fixed-capacity ring of recent trace
    events.

    Full JSONL tracing costs microseconds per event, so long runs leave
    it off — and then a crash or a strict-monitor violation has no
    post-mortem evidence. The flight recorder closes that gap: it rides
    the trace stream as a {!Trace.use_tee} consumer and keeps only the
    last [capacity] events in two preallocated arrays. {!record} is two
    array stores and an index bump — zero steady-state allocation, near
    the callback-sink floor — so it can stay on for every run.

    On demand (a strict violation, the scripted crash in [fabric-chaos],
    or the [--flight-recorder N] CLI flag's end-of-run dump) the ring is
    written oldest-first as valid JSONL, which {!Obs.Export} converts
    and validates like any full trace; JSONL is the recorder's only
    encoding. The crash dump goes to its own tagged file, so the
    end-of-run dump cannot overwrite it. {!Obs.Monitor} attaches the
    last few ring entries to each violation record as context. *)

type t
(** A ring. Recording into it never blocks, allocates or touches
    simulation state. *)

val create : ?capacity:int -> unit -> t
(** A fresh ring holding the last [capacity] events (default 4096).
    Raises [Invalid_argument] when [capacity < 1]. *)

val record : t -> Dcsim.Simtime.t -> Trace.event -> unit
(** Store one event, overwriting the oldest once the ring is full. The
    hot path: no allocation, no encoding. *)

val clear : t -> unit
(** Drop all entries (capacity unchanged). *)

val events : t -> (Dcsim.Simtime.t * Trace.event) list
(** All live entries, oldest first. *)

val last : t -> int -> (Dcsim.Simtime.t * Trace.event) list
(** The newest [n] entries (fewer if the ring holds fewer), oldest
    first — the violation-context shape {!Obs.Monitor} embeds. *)

(** {1 Installation} *)

val install : ?dump_path:string -> t -> unit
(** Subscribe the ring to the live trace stream ({!Trace.use_tee}) and
    remember it as {e the} installed recorder. Install it {e after} any
    monitor so the ring already holds the offending event when a strict
    violation fires. [dump_path] is where {!dump_installed} writes.
    [Trace.disable] detaches the tee like any sink; pair it with
    {!uninstall} to drop the handle. *)

val installed : unit -> t option
(** The currently installed ring, for consumers that capture context
    lazily (the monitor's violation records, the fabric-chaos crash
    hook). *)

val uninstall : unit -> unit
(** Forget the installed handle. Does {e not} detach the tee — that is
    [Trace.disable]'s job, exactly as for monitors. *)

(** {1 JSONL dumps} *)

val dump_jsonl : t -> out_channel -> int
(** Write every live entry oldest-first, one JSON object per line (the
    {!Trace.to_jsonl} encoding, buffer-reused across events), and
    return the number written. The output is a valid trace file:
    {!Obs.Export.convert_file} accepts it unchanged. *)

val dump_installed : ?tag:string -> unit -> (string * int) option
(** Dump the installed ring to its [dump_path], returning the path and
    event count; [None] when no ring is installed or it has no dump
    path. With [tag] the dump goes to a sibling file instead: tag
    ["crash"] turns [flight.jsonl] into [flight.crash.jsonl]. Called
    at the end of a run, on strict-violation exit, and (tagged) at the
    scripted fabric-chaos crash. *)
