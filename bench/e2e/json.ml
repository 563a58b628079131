(* The little JSON the benchmark writes (result lines, --json files)
   and reads back (compare). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Buffer.add_string b (Printf.sprintf "%.0f" f)
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Str s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string b ", ";
          to_buffer b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (Printf.sprintf "%S: " k);
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

exception Malformed of string

(* Reads what [to_string] writes. Its strings are plain identifiers and
   units, so a backslash only ever escapes the character after it. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Malformed (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (
      incr pos;
      skip ())
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then (
      pos := !pos + len;
      v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' when !pos + 1 < n ->
          Buffer.add_char b s.[!pos + 1];
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' -> Obj (members '}' (fun () ->
                 let k = string () in
                 expect ':';
                 (k, value ())))
    | '[' -> Arr (members ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-.0123456789eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
  and members : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    incr pos;
    skip ();
    if !pos < n && s.[!pos] = close then (
      incr pos;
      [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip ();
        if !pos < n && s.[!pos] = ',' then (
          incr pos;
          go acc)
        else (
          expect close;
          List.rev acc)
      in
      go []
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function Num f -> Some f | _ -> None
