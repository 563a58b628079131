(** Ephemeral source-port allocator.

    Generators that launch many concurrent flows from one source IP
    must give each live flow a distinct source port or two flows alias
    the same {!Netcore.Fkey} — cross-contaminating flow caches and ME
    histories. This allocator tracks liveness in a bitset (one bit per
    port, O(1) memory in the number of flows) and sweeps the range
    cyclically so a released port is the last to be reused. *)

type t

val create : unit -> t
(** Ports are drawn from [\[1024, 65536)], the full non-privileged
    space: a capacity of 64,512. *)

val alloc : t -> int option
(** The next free port, or [None] when every port is held by a live
    flow. Amortized O(1). *)

val release : t -> int -> unit
(** Return a port to the pool when its flow ends. Idempotent. *)

val is_live : t -> int -> bool
val in_use : t -> int
val capacity : t -> int
