(** Per-experiment metric deltas.

    The {!Obs.Metrics} registry is process-global and accumulates across
    every experiment a single [fastrak_sim run] invocation executes.
    {!record} brackets one experiment with registry snapshots and stores
    the difference, so a dump can attribute counters to the experiment
    that moved them as well as report process-wide totals. *)

val record : id:string -> (unit -> 'a) -> 'a
(** [record ~id f] runs [f], remembers the registry delta it caused
    under [id] (the instruments that changed, as {!Obs.Metrics.diff}
    reports them), and returns [f ()]'s result. Recordings append in
    run order. *)

val write_json : out_channel -> unit
(** Dump as [{"experiments": {id: {...}}, "total": {...}}] where each
    experiment object maps metric names to deltas and ["total"] is the
    live registry snapshot at write time. *)

val write_csv : out_channel -> unit
(** Same data as {!write_json} in CSV, one row per
    (experiment, instrument) with the experiment id in the first column
    and pseudo-experiment ["total"] for the cumulative values. *)
