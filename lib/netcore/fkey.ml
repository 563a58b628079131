type proto = Tcp | Udp | Icmp | Other of int

let[@inline] proto_rank = function
  | Tcp -> 0
  | Udp -> 1
  | Icmp -> 2
  | Other n ->
      (* Injective and disjoint from the named ranks for every [n]:
         non-negative ids map to odd ranks 3, 5, 7, …; negative ids to
         even ranks 4, 6, 8, …. The previous [3 + n] encoding collided
         with the named protocols for n <= 0 (e.g. [Other (-1)] ranked
         equal to [Icmp]), merging distinct protocols in pattern
         tables. *)
      if n >= 0 then 3 + (2 * n) else 4 + (2 * (-n - 1))

let proto_compare a b = Stdlib.compare (proto_rank a) (proto_rank b)

let proto_to_string = function
  | Tcp -> "tcp"
  | Udp -> "udp"
  | Icmp -> "icmp"
  | Other n -> Printf.sprintf "proto-%d" n

type t = {
  src_ip : Ipv4.t;
  dst_ip : Ipv4.t;
  src_port : int;
  dst_port : int;
  proto : proto;
  tenant : Tenant.id;
}

let make ~src_ip ~dst_ip ~src_port ~dst_port ~proto ~tenant =
  { src_ip; dst_ip; src_port; dst_port; proto; tenant }

let reverse t =
  {
    t with
    src_ip = t.dst_ip;
    dst_ip = t.src_ip;
    src_port = t.dst_port;
    dst_port = t.src_port;
  }

let compare a b =
  let c = Ipv4.compare a.src_ip b.src_ip in
  if c <> 0 then c
  else begin
    let c = Ipv4.compare a.dst_ip b.dst_ip in
    if c <> 0 then c
    else begin
      let c = Stdlib.compare a.src_port b.src_port in
      if c <> 0 then c
      else begin
        let c = Stdlib.compare a.dst_port b.dst_port in
        if c <> 0 then c
        else begin
          let c = proto_compare a.proto b.proto in
          if c <> 0 then c else Tenant.compare a.tenant b.tenant
        end
      end
    end
  end

(* Field by field, on immediates: no cross-module call, no compare.
   A flow's data packets share its key record, so a table probe often
   meets the very record it stored and [==] settles it. *)
let equal a b =
  a == b
  || (a.src_ip :> int) = (b.src_ip :> int)
     && (a.dst_ip :> int) = (b.dst_ip :> int)
     && a.src_port = b.src_port && a.dst_port = b.dst_port
     && proto_rank a.proto = proto_rank b.proto
     && (a.tenant :> int) = (b.tenant :> int)

(* Multiplicative int mixer. Every step is integer arithmetic on
   immediates, so hashing allocates nothing — the previous
   implementation built a 6-tuple per call, i.e. 7 minor words on
   every table probe of the packet hot path. *)
let[@inline] mix h v =
  let h = (h lxor v) * 0x9E3779B1 in
  h lxor (h lsr 29)

(* The 6-tuple's fields in [t]'s order, the protocol as its rank. *)
let hash_fields src_ip dst_ip src_port dst_port rank tenant =
  let h = mix (mix (mix 0x42 src_ip) dst_ip) src_port in
  mix (mix (mix h dst_port) rank) tenant land max_int

let hash t =
  hash_fields (t.src_ip :> int) (t.dst_ip :> int) t.src_port t.dst_port
    (proto_rank t.proto) (t.tenant :> int)

let pp ppf t =
  Format.fprintf ppf "%a[%a:%d -> %a:%d %s]" Tenant.pp t.tenant Ipv4.pp
    t.src_ip t.src_port Ipv4.pp t.dst_ip t.dst_port (proto_to_string t.proto)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Pattern = struct
  type fkey = t

  type t = {
    src_ip : Ipv4.t option;
    dst_ip : Ipv4.t option;
    src_port : int option;
    dst_port : int option;
    proto : proto option;
    tenant : Tenant.id option;
  }

  let any =
    {
      src_ip = None;
      dst_ip = None;
      src_port = None;
      dst_port = None;
      proto = None;
      tenant = None;
    }

  let exact (k : fkey) =
    {
      src_ip = Some k.src_ip;
      dst_ip = Some k.dst_ip;
      src_port = Some k.src_port;
      dst_port = Some k.dst_port;
      proto = Some k.proto;
      tenant = Some k.tenant;
    }

  let field_matches eq pattern value =
    match pattern with None -> true | Some p -> eq p value

  let matches p (k : fkey) =
    field_matches Ipv4.equal p.src_ip k.src_ip
    && field_matches Ipv4.equal p.dst_ip k.dst_ip
    && field_matches ( = ) p.src_port k.src_port
    && field_matches ( = ) p.dst_port k.dst_port
    && field_matches (fun a b -> proto_compare a b = 0) p.proto k.proto
    && field_matches Tenant.equal p.tenant k.tenant

  let specificity p =
    (match p.src_ip with None -> 0 | Some _ -> 1)
    + (match p.dst_ip with None -> 0 | Some _ -> 1)
    + (match p.src_port with None -> 0 | Some _ -> 1)
    + (match p.dst_port with None -> 0 | Some _ -> 1)
    + (match p.proto with None -> 0 | Some _ -> 1)
    + (match p.tenant with None -> 0 | Some _ -> 1)

  let src_aggregate (k : fkey) =
    { any with src_ip = Some k.src_ip; src_port = Some k.src_port; tenant = Some k.tenant }

  let dst_aggregate (k : fkey) =
    { any with dst_ip = Some k.dst_ip; dst_port = Some k.dst_port; tenant = Some k.tenant }

  let from_vm ip tenant = { any with src_ip = Some ip; tenant = Some tenant }
  let to_vm ip tenant = { any with dst_ip = Some ip; tenant = Some tenant }

  let field_subset eq a b =
    match (a, b) with
    | _, None -> true
    | None, Some _ -> false
    | Some x, Some y -> eq x y

  let is_subset p ~of_ =
    field_subset Ipv4.equal p.src_ip of_.src_ip
    && field_subset Ipv4.equal p.dst_ip of_.dst_ip
    && field_subset ( = ) p.src_port of_.src_port
    && field_subset ( = ) p.dst_port of_.dst_port
    && field_subset (fun a b -> proto_compare a b = 0) p.proto of_.proto
    && field_subset Tenant.equal p.tenant of_.tenant

  let compare a b = Stdlib.compare a b
  let equal a b = compare a b = 0

  (* Structural hashing agrees with [equal]: every field is an
     immediate (int, int option) or a simple variant. *)
  let hash (p : t) = Hashtbl.hash p

  module Table = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  let pp_field pp_v ppf = function
    | None -> Format.pp_print_string ppf "*"
    | Some v -> pp_v ppf v

  let pp ppf p =
    Format.fprintf ppf "{%a %a:%a -> %a:%a %a}"
      (pp_field Tenant.pp) p.tenant (pp_field Ipv4.pp) p.src_ip
      (pp_field Format.pp_print_int) p.src_port (pp_field Ipv4.pp) p.dst_ip
      (pp_field Format.pp_print_int) p.dst_port
      (pp_field (fun ppf pr -> Format.pp_print_string ppf (proto_to_string pr)))
      p.proto

  module Mask = struct
    type pattern = t

    type t = {
      src_ip : bool;
      dst_ip : bool;
      src_port : bool;
      dst_port : bool;
      proto : bool;
      tenant : bool;
    }

    let none =
      {
        src_ip = false;
        dst_ip = false;
        src_port = false;
        dst_port = false;
        proto = false;
        tenant = false;
      }

    let all =
      {
        src_ip = true;
        dst_ip = true;
        src_port = true;
        dst_port = true;
        proto = true;
        tenant = true;
      }

    let union a b =
      {
        src_ip = a.src_ip || b.src_ip;
        dst_ip = a.dst_ip || b.dst_ip;
        src_port = a.src_port || b.src_port;
        dst_port = a.dst_port || b.dst_port;
        proto = a.proto || b.proto;
        tenant = a.tenant || b.tenant;
      }

    let of_pattern (p : pattern) =
      {
        src_ip = Option.is_some p.src_ip;
        dst_ip = Option.is_some p.dst_ip;
        src_port = Option.is_some p.src_port;
        dst_port = Option.is_some p.dst_port;
        proto = Option.is_some p.proto;
        tenant = Option.is_some p.tenant;
      }

    let project m (k : fkey) : pattern =
      {
        src_ip = (if m.src_ip then Some k.src_ip else None);
        dst_ip = (if m.dst_ip then Some k.dst_ip else None);
        src_port = (if m.src_port then Some k.src_port else None);
        dst_port = (if m.dst_port then Some k.dst_port else None);
        proto = (if m.proto then Some k.proto else None);
        tenant = (if m.tenant then Some k.tenant else None);
      }

    let bits m =
      (if m.src_ip then 1 else 0)
      + (if m.dst_ip then 2 else 0)
      + (if m.src_port then 4 else 0)
      + (if m.dst_port then 8 else 0)
      + (if m.proto then 16 else 0)
      + if m.tenant then 32 else 0

    (* A field outside the mask reads as 0. *)
    let hash_flow m (k : fkey) =
      let v on x = if on then x else 0 in
      hash_fields (v m.src_ip (k.src_ip :> int)) (v m.dst_ip (k.dst_ip :> int))
        (v m.src_port k.src_port) (v m.dst_port k.dst_port)
        (v m.proto (proto_rank k.proto)) (v m.tenant (k.tenant :> int))

    let hash_pattern (p : pattern) =
      let v = Option.value ~default:0 in
      hash_fields (v (p.src_ip :> int option)) (v (p.dst_ip :> int option))
        (v p.src_port) (v p.dst_port)
        (match p.proto with Some r -> proto_rank r | None -> 0)
        (v (p.tenant :> int option))

    let equal a b = a = b
    let compare a b = Stdlib.compare (bits a) (bits b)
    let hash m = bits m

    let pp ppf m =
      let names =
        List.filter_map
          (fun (on, n) -> if on then Some n else None)
          [
            (m.src_ip, "src_ip");
            (m.dst_ip, "dst_ip");
            (m.src_port, "src_port");
            (m.dst_port, "dst_port");
            (m.proto, "proto");
            (m.tenant, "tenant");
          ]
      in
      Format.fprintf ppf "mask(%s)"
        (if names = [] then "-" else String.concat "," names)
  end
end
