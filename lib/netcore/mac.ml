type t = int

let mask48 = 0xFFFFFFFFFFFF
let of_int i = i land mask48

let vm_mac ~server ~vm =
  (* 0x02 in the first octet marks a locally administered unicast MAC. *)
  (0x02 lsl 40) lor ((server land 0xFFFFF) lsl 16) lor (vm land 0xFFFF)

let equal (a : t) (b : t) = a = b

let pp ppf t =
  Format.fprintf ppf "%02x:%02x:%02x:%02x:%02x:%02x"
    ((t lsr 40) land 0xFF)
    ((t lsr 32) land 0xFF)
    ((t lsr 24) land 0xFF)
    ((t lsr 16) land 0xFF)
    ((t lsr 8) land 0xFF)
    (t land 0xFF)
