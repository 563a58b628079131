(** Hash table keyed by int, hashing a key to itself: a probe calls no
    polymorphic hash or compare. For per-packet tables. *)

include Hashtbl.S with type key = int
