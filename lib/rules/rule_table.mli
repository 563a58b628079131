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

val lookup : 'a t -> Netcore.Fkey.t -> [ `Hit of 'a option | `Miss of 'a option ]
(** Cached lookup. [`Miss] means the slow path ran and its (possibly
    negative) result is now cached; [`Hit] came from the cache. Packs
    the key per call; per-packet callers should use {!find}. *)

val find : 'a t -> Netcore.Fkey.Packed.t -> Netcore.Fkey.t -> 'a option
(** [find t key flow] is the per-packet cached lookup: [key] must be
    [Fkey.Packed.of_fkey flow]. A cache hit returns the stored result
    without allocating (no option re-wrap, no [`Hit] variant); a miss
    runs the priority scan and caches its result. *)

val rule_count : 'a t -> int
val cache_size : 'a t -> int
val fast_hits : 'a t -> int
val slow_lookups : 'a t -> int

val fold_rules :
  'a t -> init:'b -> f:('b -> rule_id -> Netcore.Fkey.Pattern.t -> int -> 'a -> 'b) -> 'b
(** Iterate live rules (id, pattern, priority, value) in priority order,
    highest first. *)
