(** The paper's reported numbers for Tables 1–4, printed beside the
    measured rows by [fastrak_sim run table1 … table4]. *)

val print_table1 : unit -> unit
val print_table2 : unit -> unit
val print_table3 : unit -> unit
val print_table4 : unit -> unit
