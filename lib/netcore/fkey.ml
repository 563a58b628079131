type proto = Tcp | Udp | Icmp | Other of int

let proto_rank = function
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

let proto_of_rank = function
  | 0 -> Tcp
  | 1 -> Udp
  | 2 -> Icmp
  | r when r >= 3 && r land 1 = 1 -> Other ((r - 3) / 2)
  | r when r >= 4 && r land 1 = 0 -> Other (-((r - 4) / 2) - 1)
  | r -> invalid_arg (Printf.sprintf "Fkey.proto_of_rank: %d" r)

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

let equal a b = compare a b = 0

(* Multiplicative int mixer. Every step is integer arithmetic on
   immediates, so hashing allocates nothing — the previous
   implementation built a 6-tuple per call, i.e. 7 minor words on
   every table probe of the packet hot path. *)
let[@inline] mix h v =
  let h = (h lxor v) * 0x9E3779B1 in
  h lxor (h lsr 29)

let hash t =
  let h = mix 0x42 (t.src_ip :> int) in
  let h = mix h (t.dst_ip :> int) in
  let h = mix h t.src_port in
  let h = mix h t.dst_port in
  let h = mix h (proto_rank t.proto) in
  let h = mix h (Tenant.to_int t.tenant) in
  h land max_int

let pp ppf t =
  Format.fprintf ppf "%a[%a:%d -> %a:%d %s]" Tenant.pp t.tenant Ipv4.pp
    t.src_ip t.src_port Ipv4.pp t.dst_ip t.dst_port (proto_to_string t.proto)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Packed = struct
  type fkey = t

  (* Flat int record: one minor-heap block of four immediates. [hash]
     reads the precomputed field and [equal] is three int compares, so
     neither allocates on a table probe. *)
  type t = { w0 : int; w1 : int; w2 : int; h : int }

  (* w2 = rank lsl 32 lor tenant must stay a non-negative OCaml int
     (62 value bits), so the protocol rank is capped at 30 bits —
     every IANA protocol number (and any sane [Other n]) fits. *)
  let max_rank = 0x3FFF_FFFF

  let of_fkey (k : fkey) =
    if k.src_port < 0 || k.src_port > 0xFFFF then
      invalid_arg "Fkey.Packed.of_fkey: src_port out of range";
    if k.dst_port < 0 || k.dst_port > 0xFFFF then
      invalid_arg "Fkey.Packed.of_fkey: dst_port out of range";
    let rank = proto_rank k.proto in
    if rank < 0 || rank > max_rank then
      invalid_arg "Fkey.Packed.of_fkey: protocol number out of range";
    let w0 = ((k.src_ip :> int) lsl 16) lor k.src_port in
    let w1 = ((k.dst_ip :> int) lsl 16) lor k.dst_port in
    let w2 = (rank lsl 32) lor Tenant.to_int k.tenant in
    let h = mix (mix (mix 0x42 w0) w1) w2 land max_int in
    { w0; w1; w2; h }

  let to_fkey t =
    make
      ~src_ip:(Ipv4.of_int32 (Int32.of_int (t.w0 lsr 16)))
      ~dst_ip:(Ipv4.of_int32 (Int32.of_int (t.w1 lsr 16)))
      ~src_port:(t.w0 land 0xFFFF) ~dst_port:(t.w1 land 0xFFFF)
      ~proto:(proto_of_rank (t.w2 lsr 32))
      ~tenant:(Tenant.of_int (t.w2 land 0xFFFF_FFFF))

  let equal a b = a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2

  let compare a b =
    let c = Stdlib.compare a.w0 b.w0 in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.w1 b.w1 in
      if c <> 0 then c else Stdlib.compare a.w2 b.w2

  let hash t = t.h
  let pp ppf t = pp ppf (to_fkey t)

  module Table = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)
end

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
