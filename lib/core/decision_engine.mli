(** The TOR decision engine's selection algorithm (§4.3.2).

    Pure: given scored candidates (from local reports and the TOR ME),
    the currently offloaded set and the hardware budget, pick the
    highest-scoring set that fits: a greedy pass over the candidates in
    score order takes each one whose TCAM entries still fit.
    Aggregates currently in hardware whose score falls out of the
    winning set are demoted. *)

type candidate = {
  pattern : Netcore.Fkey.Pattern.t;
  tenant : Netcore.Tenant.id;
  vm_ip : Netcore.Ipv4.t;  (** The VM whose flow placer must change. *)
  score : float;
  tcam_entries : int;  (** Entries this candidate would consume. *)
}

type decision = {
  offload : candidate list;  (** Selected and not currently in hardware. *)
  demote : candidate list;  (** Currently in hardware, no longer selected. *)
  keep : candidate list;  (** In hardware and still winning. *)
}
(** [offload] and [keep] list the lowest-ranked winner first; [demote]
    follows [offloaded]'s order. The controller applies them in list
    order, so the order fixes install, directive and trace order. *)

type scratch
(** Pooled per-call working storage for {!decide}: pre-sized pattern
    membership tables, the eligible-candidate array and its in-place
    sort order. Create one per controller and pass it to every
    {!decide} call; reuse across calls is what cuts decide-call garbage
    by an order of magnitude (see [BENCH_decision.json]). Not
    reentrant: one scratch must not be shared by concurrently running
    decide calls. *)

val create_scratch : unit -> scratch

val decide :
  ?scratch:scratch ->
  candidates:candidate list ->
  offloaded:(Netcore.Fkey.Pattern.t * candidate) list ->
  tcam_free:int ->
  min_score:float ->
  unit ->
  decision
(** [tcam_free] is the budget not currently used by [offloaded] entries
    — demotions return their entries, and the selection accounts for
    that. [candidates] must include fresh scores for offloaded
    aggregates (the TOR ME measures them); an offloaded aggregate
    absent from [candidates] is treated as idle and demoted. Equal
    scores rank by ascending {!Netcore.Fkey.Pattern.compare}, so the
    decision does not depend on the order of [candidates] (only
    candidates with equal score and pattern keep their list order).

    Complexity: O((c + o) log c) for [c] candidates and [o] offloaded
    entries — one sort plus pattern-keyed hashtable membership; no
    per-candidate walk over the offloaded set. *)

val decide_list_baseline :
  candidates:candidate list ->
  offloaded:(Netcore.Fkey.Pattern.t * candidate) list ->
  tcam_free:int ->
  min_score:float ->
  unit ->
  decision
(** The pre-hashtable reference implementation: identical selection
    and output order, but a list sort and membership classification by
    O(c × o) list scans. Kept only as the oracle for the randomized
    equivalence tests and as the baseline the benchmark harness
    measures speedup against — do not call it on rack-scale inputs in
    production paths. *)
