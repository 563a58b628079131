let width = 14

let pad s =
  if String.length s >= width then s ^ " "
  else s ^ String.make (width - String.length s) ' '

let print_title title =
  print_newline ();
  print_endline ("== " ^ title ^ " ==")

let print_header cells =
  print_endline (String.concat "" (List.map pad cells));
  print_endline (String.make (width * List.length cells) '-')

let print_row cells = print_endline (String.concat "" (List.map pad cells))

let cell_f ?(decimals = 1) v =
  if Float.is_integer v && Float.abs v >= 1000.0 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.*f" decimals v

let cell_i = string_of_int
