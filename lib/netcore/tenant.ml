type id = int

let of_int i =
  if i < 0 || i > 0xFFFFFFFF then invalid_arg "Tenant.of_int: out of range";
  i

let to_int id = id
let compare (a : id) (b : id) = Stdlib.compare a b
let equal (a : id) (b : id) = a = b
let pp ppf id = Format.fprintf ppf "tenant-%d" id

let to_vlan id =
  if id < 1 || id > 4094 then
    invalid_arg "Tenant.to_vlan: no VLAN allocated for this tenant id";
  id
