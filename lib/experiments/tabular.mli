(** Fixed-width table printing for experiment output, with optional
    paper-reference columns so every reproduced artifact prints
    paper-vs-measured side by side. *)

val print_title : string -> unit
val print_header : string list -> unit
val print_row : string list -> unit
val cell_f : ?decimals:int -> float -> string
val cell_i : int -> string
