module Simtime = Dcsim.Simtime

(* --- P² streaming quantile estimation (Jain & Chlamtac, CACM 1985).

   Five markers track the running estimate of one quantile: the min,
   the max, the target quantile and the two midpoints. Each
   observation shifts marker positions and, when a marker drifts off
   its desired position, adjusts its height with a piecewise-parabolic
   (hence P²) interpolation — constant memory, O(1) per observation,
   no stored samples. --- *)

module P2 = struct
  type t = {
    p : float;
    q : float array;  (* marker heights *)
    n : float array;  (* actual marker positions (1-based counts) *)
    n' : float array;  (* desired marker positions *)
    dn : float array;  (* desired-position increments *)
    init : float array;  (* first observations, until 5 arrive *)
    mutable count : int;
  }

  let create p =
    if not (p > 0.0 && p < 1.0) then invalid_arg "P2.create: p outside (0,1)";
    {
      p;
      q = Array.make 5 0.0;
      n = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      n' = [| 1.0; 1.0 +. (2.0 *. p); 1.0 +. (4.0 *. p); 3.0 +. (2.0 *. p); 5.0 |];
      dn = [| 0.0; p /. 2.0; p; (1.0 +. p) /. 2.0; 1.0 |];
      init = Array.make 5 0.0;
      count = 0;
    }

  let parabolic t i s =
    let q = t.q and n = t.n in
    q.(i)
    +. s
       /. (n.(i + 1) -. n.(i - 1))
       *. (((n.(i) -. n.(i - 1) +. s) *. (q.(i + 1) -. q.(i)) /. (n.(i + 1) -. n.(i)))
          +. ((n.(i + 1) -. n.(i) -. s) *. (q.(i) -. q.(i - 1)) /. (n.(i) -. n.(i - 1))))

  let linear t i s =
    let si = int_of_float s in
    t.q.(i) +. (s *. (t.q.(i + si) -. t.q.(i)) /. (t.n.(i + si) -. t.n.(i)))

  let observe t x =
    if Float.is_nan x then ()
    else begin
      t.count <- t.count + 1;
      if t.count <= 5 then begin
        t.init.(t.count - 1) <- x;
        if t.count = 5 then begin
          Array.sort Float.compare t.init;
          Array.blit t.init 0 t.q 0 5
        end
      end
      else begin
        let q = t.q and n = t.n and n' = t.n' in
        let k =
          if x < q.(0) then begin
            q.(0) <- x;
            0
          end
          else if x >= q.(4) then begin
            q.(4) <- x;
            3
          end
          else begin
            let k = ref 0 in
            for i = 1 to 3 do
              if q.(i) <= x then k := i
            done;
            !k
          end
        in
        for i = k + 1 to 4 do
          n.(i) <- n.(i) +. 1.0
        done;
        for i = 0 to 4 do
          n'.(i) <- n'.(i) +. t.dn.(i)
        done;
        for i = 1 to 3 do
          let d = n'.(i) -. n.(i) in
          if
            (d >= 1.0 && n.(i + 1) -. n.(i) > 1.0)
            || (d <= -1.0 && n.(i - 1) -. n.(i) < -1.0)
          then begin
            let s = if d >= 0.0 then 1.0 else -1.0 in
            let candidate = parabolic t i s in
            if q.(i - 1) < candidate && candidate < q.(i + 1) then
              q.(i) <- candidate
            else q.(i) <- linear t i s;
            n.(i) <- n.(i) +. s
          end
        done
      end
    end

  let value t =
    if t.count = 0 then 0.0
    else if t.count >= 5 then t.q.(2)
    else begin
      (* Too few samples for markers: exact order statistic instead. *)
      let a = Array.sub t.init 0 t.count in
      Array.sort Float.compare a;
      let idx =
        int_of_float (Float.round (t.p *. float_of_int (t.count - 1)))
      in
      a.(Stdlib.max 0 (Stdlib.min (t.count - 1) idx))
    end

  let clear t =
    t.count <- 0;
    Array.fill t.q 0 5 0.0;
    Array.fill t.init 0 5 0.0;
    Array.blit [| 1.0; 2.0; 3.0; 4.0; 5.0 |] 0 t.n 0 5;
    t.n'.(0) <- 1.0;
    t.n'.(1) <- 1.0 +. (2.0 *. t.p);
    t.n'.(2) <- 1.0 +. (4.0 *. t.p);
    t.n'.(3) <- 3.0 +. (2.0 *. t.p);
    t.n'.(4) <- 5.0
end

(* --- Named series and per-epoch rows --- *)

type quantiles = {
  count : int;
  mean : float;
  last : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type series = {
  s_name : string;
  mutable s_count : int;
  mutable s_sum : float;
  mutable s_last : float;
  q50 : P2.t;
  q90 : P2.t;
  q99 : P2.t;
}

type row = { at : Simtime.t; series_name : string; stats : quantiles }

type t = {
  by_name : (string, series) Hashtbl.t;
  mutable ordered : series list;  (* newest first; rows reverse it *)
  mutable rows_rev : row list;
}

let create () = { by_name = Hashtbl.create 16; ordered = []; rows_rev = [] }
let default = create ()
let on = ref false
let enable () = on := true
let disable () = on := false
let enabled () = !on

let series ?(collector = default) name =
  match Hashtbl.find_opt collector.by_name name with
  | Some s -> s
  | None ->
      let s =
        {
          s_name = name;
          s_count = 0;
          s_sum = 0.0;
          s_last = 0.0;
          q50 = P2.create 0.50;
          q90 = P2.create 0.90;
          q99 = P2.create 0.99;
        }
      in
      Hashtbl.replace collector.by_name name s;
      collector.ordered <- s :: collector.ordered;
      s

let observe s v =
  if not (Float.is_nan v) then begin
    s.s_count <- s.s_count + 1;
    s.s_sum <- s.s_sum +. v;
    s.s_last <- v;
    P2.observe s.q50 v;
    P2.observe s.q90 v;
    P2.observe s.q99 v
  end

let quantiles s =
  {
    count = s.s_count;
    mean = (if s.s_count = 0 then 0.0 else s.s_sum /. float_of_int s.s_count);
    last = s.s_last;
    p50 = P2.value s.q50;
    p90 = P2.value s.q90;
    p99 = P2.value s.q99;
  }

let tick ?(collector = default) ~now () =
  List.iter
    (fun s ->
      if s.s_count > 0 then
        collector.rows_rev <-
          { at = now; series_name = s.s_name; stats = quantiles s }
          :: collector.rows_rev)
    (List.rev collector.ordered)

let rows ?(collector = default) () = List.rev collector.rows_rev

let reset_series ?(collector = default) () =
  Hashtbl.iter
    (fun _ s ->
      s.s_count <- 0;
      s.s_sum <- 0.0;
      s.s_last <- 0.0;
      P2.clear s.q50;
      P2.clear s.q90;
      P2.clear s.q99)
    collector.by_name

(* --- Output --- *)

let row_to_jsonl r =
  Printf.sprintf
    "{\"t_ns\":%d,\"t\":%.9f,\"series\":\"%s\",\"count\":%d,\"mean\":%.17g,\"last\":%.17g,\"p50\":%.17g,\"p90\":%.17g,\"p99\":%.17g}"
    (Simtime.to_ns r.at) (Simtime.to_sec r.at) r.series_name r.stats.count
    r.stats.mean r.stats.last r.stats.p50 r.stats.p90 r.stats.p99

let write_jsonl oc rows =
  List.iter
    (fun r ->
      output_string oc (row_to_jsonl r);
      output_char oc '\n')
    rows

let write_csv oc rows =
  output_string oc "t_ns,series,count,mean,last,p50,p90,p99\n";
  List.iter
    (fun r ->
      Printf.fprintf oc "%d,%s,%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
        (Simtime.to_ns r.at) r.series_name r.stats.count r.stats.mean
        r.stats.last r.stats.p50 r.stats.p90 r.stats.p99)
    rows
