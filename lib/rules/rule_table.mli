(** Priority-ordered wildcard rule table with an exact-match cache.

    This is the lookup structure shared by OVS's datapath and the flow
    placer (§2.2, §4.1.1): a slow path does a priority scan over
    wildcard rules; the result is cached per exact flow key so that
    subsequent packets hit an O(1) hash lookup. The table counts slow-
    and fast-path hits so CPU cost models can charge them differently. *)

type 'a t

val create : unit -> 'a t

type rule_id = private int

val insert :
  'a t -> pattern:Netcore.Fkey.Pattern.t -> priority:int -> 'a -> rule_id
(** Inserting invalidates the exact-match cache (as OVS does on any
    flow-table modification). Among equal priorities, the most recently
    inserted rule wins. *)

val remove : 'a t -> rule_id -> bool
(** Returns false if the rule was already removed. Invalidates cache. *)

val lookup_slow : 'a t -> Netcore.Fkey.t -> 'a option
(** Priority scan, bypassing the cache; does not populate it. *)

val find : 'a t -> Netcore.Fkey.t -> 'a option
(** The per-packet cached lookup. A cache hit counts in {!fast_hits}
    and returns the stored result without allocating; a miss runs the
    priority scan (counted in {!slow_lookups}) and caches its result,
    negative results included. *)

val rule_count : 'a t -> int
val cache_size : 'a t -> int
val fast_hits : 'a t -> int
val slow_lookups : 'a t -> int

val fold_rules :
  'a t -> init:'b -> f:('b -> rule_id -> Netcore.Fkey.Pattern.t -> int -> 'a -> 'b) -> 'b
(** Iterate live rules (id, pattern, priority, value) in priority order,
    highest first. *)
