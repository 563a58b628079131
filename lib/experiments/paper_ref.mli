(** The paper's reported numbers, for side-by-side printing.

    Figures 3–5 are plots whose exact values the paper does not
    tabulate; for those we record the *claims* made in the prose
    (ratios and caps) and check them programmatically. Tables 1–4 are
    reproduced verbatim. *)

val table2 : (string * float * float * float * float) list
(** (% via VIF, mean finish s, mean TPS, mean latency us, CPUs). *)

val table3 : (string * float * float * float * float) list
val table4 : (string * float * float * float * float) list

type claim = { id : string; description : string; check : unit -> bool option }
(** [check] returns [None] when the claim needs experiment results
    supplied elsewhere; the bench harness evaluates claims against its
    own measurements. *)

val prose_claims : string list
(** The §3 prose claims our microbenchmarks are calibrated against. *)

val print_table1 : unit -> unit
val print_table2 : unit -> unit
val print_table3 : unit -> unit
val print_table4 : unit -> unit
