type t = int

let mask32 = 0xFFFFFFFF
let of_int32 i = Int32.to_int i land mask32

let of_octets a b c d =
  let octet name v =
    if v < 0 || v > 255 then
      invalid_arg (Printf.sprintf "Ipv4.of_octets: %s = %d out of range" name v)
  in
  octet "a" a;
  octet "b" b;
  octet "c" c;
  octet "d" d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d -> of_octets a b c d
      | _ -> invalid_arg ("Ipv4.of_string: " ^ s))
  | _ -> invalid_arg ("Ipv4.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d"
    ((t lsr 24) land 0xFF)
    ((t lsr 16) land 0xFF)
    ((t lsr 8) land 0xFF)
    (t land 0xFF)

let compare (a : t) (b : t) = Stdlib.compare a b
let equal (a : t) (b : t) = a = b
let pp ppf t = Format.pp_print_string ppf (to_string t)

let in_prefix addr ~prefix ~len =
  if len < 0 || len > 32 then invalid_arg "Ipv4.in_prefix: bad prefix length";
  if len = 0 then true
  else begin
    let mask = mask32 lxor ((1 lsl (32 - len)) - 1) in
    addr land mask = prefix land mask
  end

let offset base k = (base + k) land mask32
