(** Deterministic fault schedules for control and data channels.

    A schedule describes *what can go wrong* on a channel: per-message
    drop / duplicate / reorder probabilities, uniform extra delivery
    jitter, link-down windows (every message sent inside a window is
    lost), and one-shot triggers ("at t, drop the next n messages").
    The same schedule also carries the data-plane TCAM failure modes
    (probabilistic install failure and entry soft errors), which are
    read by the rule manager rather than by channel injectors.
    A schedule is pure data — pair it with a {!Dcsim.Rng} stream in an
    {!Injector} to obtain a deterministic per-channel fault source, so
    a faulty run is still an exact function of its seed.

    See [docs/FAULTS.md] for the textual syntax and the named
    profiles. *)

type window = {
  down_from : Dcsim.Simtime.t;  (** First instant of the outage. *)
  down_until : Dcsim.Simtime.t;  (** Messages sent at or after this instant get through. *)
}
(** A link-down interval [\[down_from, down_until)]. *)

type trigger = {
  fire_at : Dcsim.Simtime.t;
  drop_next : int;  (** How many messages to drop once armed. *)
}
(** One-shot: from [fire_at] onwards, the next [drop_next] messages on
    the channel are dropped, then the trigger is spent. *)

type t = {
  drop : float;  (** Per-message loss probability in [0,1]. *)
  duplicate : float;  (** Per-message duplication probability in [0,1]. *)
  reorder : float;
      (** Probability a message ignores the in-order delivery clamp and
          may overtake messages sent before it. *)
  jitter : Dcsim.Simtime.span;
      (** Extra delivery delay drawn uniformly from [\[0, jitter)]. *)
  windows : window list;
  triggers : trigger list;
  tcam_install_fail : float;
      (** Probability each TCAM rule install fails outright, in [0,1].
          Consumed by the rule manager, not by channel injectors. *)
  tcam_soft_error : float;
      (** Per-scan-per-VRF probability (drawn every 100 ms) that a
          random installed entry suffers a soft error and is silently
          evicted. Consumed by the rule manager. *)
}

val none : t
(** All probabilities zero, no jitter, no windows, no triggers, no TCAM
    faults. *)

val is_none : t -> bool
(** True iff the schedule can never perturb anything — channels treat
    such a schedule exactly like no schedule at all, keeping fault-free
    runs byte-identical. *)

val has_channel_faults : t -> bool
(** True iff any of the per-message channel faults (drop, dup, reorder,
    jitter, windows, triggers) can fire. A schedule with only TCAM
    faults set needs no channel injectors. *)

val has_tcam_faults : t -> bool
(** True iff {!field-tcam_install_fail} or {!field-tcam_soft_error} is
    positive. *)

val of_string : string -> (t, string) result
(** Parse the comma-separated [key=value] syntax, e.g.
    ["drop=0.05,dup=0.01,jitter_us=500,down=1.5:2.0,tcam_fail=0.1"].
    [down] and [dropnext] may repeat; [down=FROM:UNTIL] requires
    [0 <= FROM < UNTIL] — zero-width and inverted windows are rejected
    with an explanatory error. Every time ([down], [dropnext]'s AT,
    [jitter_us]) must be finite and fit {!Dcsim.Simtime}: at least 0
    and below about 4.6e9 s. See [docs/FAULTS.md]. *)

val profile : string -> (t, string) result
(** Resolve a named profile ([none], [lossy], [chaos], [smoke],
    [fabric]) or fall back to {!of_string} for a raw spec. [lossy] is
    probabilistic faults only: 5% drop, 1% duplicate, 2% reorder,
    200 us jitter. *)

val to_string : t -> string
(** Canonical [of_string]-parseable rendering. *)
