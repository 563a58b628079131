(** Offline JSONL → Chrome trace-event ("Perfetto") conversion.

    Converts a trace written by {!Trace}'s JSONL sink into the Chrome
    trace-event JSON that {{:https://ui.perfetto.dev}Perfetto} and
    [chrome://tracing] open directly ([fastrak_sim trace-export]).

    Each span {e track} (a server, ["tor"]) becomes one process row.
    Chrome duration events must nest like a call stack per (pid, tid),
    which concurrent control-plane spans do not, so spans are dealt
    onto {e lanes} (tids): a span joins the first lane whose innermost
    open span encloses it, otherwise it opens a new lane — every lane
    then holds a properly nested family and serialises as legal B/E
    pairs. Lane 0 carries instants (drops, retries, peer state,
    promotions/demotions, migration stages) and the TCAM occupancy
    counter ("C" events). Spans left open at the end of the trace are
    closed synthetically at its final timestamp with outcome
    ["unterminated"]. *)

type chrome_event = {
  name : string;
  cat : string;  (** Span kind, ["event"], ["counter"] or metadata. *)
  ph : string;  (** ["M"], ["B"], ["E"], ["i"] or ["C"]. *)
  ts_us : float;  (** Microseconds, the unit Chrome expects. *)
  pid : int;  (** One per track, in order of first appearance. *)
  tid : int;  (** 0 = instants/counters, >= 1 = span lanes. *)
  scope : string option;  (** [Some "t"] on instants (thread scope). *)
  args : (string * Trace.json_value) list;
}

val convert : (Dcsim.Simtime.t * Trace.event) list -> chrome_event list
(** Pure conversion of an in-memory trace: metadata rows first, then
    all events in non-decreasing timestamp order with per-lane stack
    discipline (checked by {!validate}). *)

val validate : chrome_event list -> (int, string) result
(** Check the converter's output contract — timestamps never regress
    along the array, every ["E"] closes the innermost open ["B"] of its
    (pid, tid), and no lane is left open. [Ok n] is the number of
    events checked. *)

val validate_file : string -> (int, string) result
(** {!validate} on a written file: re-parses each serialised event line
    and runs the same checks, so an exported file round-trips through
    the validator without an in-memory copy. *)

type stats = { events_in : int; skipped : int; events_out : int }
(** [skipped] counts malformed JSONL input lines (tolerated: a trace
    truncated by a crash still converts). *)

val convert_file : input:string -> output:string -> (stats, string) result
(** Read a JSONL trace, convert, write, {!validate} the in-memory
    result, then {!validate_file} the file just written (a full
    serialise/re-parse round trip). [Error] on an unreadable input
    file or (never expected) output that fails its own validator. *)
