module Summary = struct
  type t = {
    mutable count : int;
    mutable sum : float;
    mutable mean : float;
    mutable m2 : float;
    mutable min_v : float;
    mutable max_v : float;
  }

  let create () =
    { count = 0; sum = 0.; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity }

  let clear t =
    t.count <- 0;
    t.sum <- 0.;
    t.mean <- 0.;
    t.m2 <- 0.;
    t.min_v <- infinity;
    t.max_v <- neg_infinity

  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x

  let count t = t.count
  let sum t = t.sum
  let mean t = if t.count = 0 then 0. else t.mean
  let variance t = if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
  (* nan, not 0., when empty: a 0. would be indistinguishable from a
     real observed zero in snapshots of signed series. *)
  let min t = if t.count = 0 then Float.nan else t.min_v
  let max t = if t.count = 0 then Float.nan else t.max_v
end

module Histogram = struct
  (* Buckets: values < linear_limit are binned with [linear_width]
     resolution; above that, geometric buckets with ratio [growth]. This
     keeps relative error ~2% at the tail with a few hundred buckets. *)
  let linear_limit = 1024.0
  let linear_width = 1.0
  let growth = 1.02
  let linear_buckets = 1024
  let geo_buckets = 1400

  type t = {
    counts : int array;
    mutable total : int;
    mutable sum : float;
    mutable max_v : float;
  }

  let create () =
    {
      counts = Array.make (linear_buckets + geo_buckets) 0;
      total = 0;
      sum = 0.;
      max_v = 0.;
    }

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.total <- 0;
    t.sum <- 0.;
    t.max_v <- 0.

  let bucket_of_value v =
    if v < 0.0 then 0
    else if v < linear_limit then int_of_float (v /. linear_width)
    else begin
      let idx =
        linear_buckets
        + int_of_float (log (v /. linear_limit) /. log growth)
      in
      Stdlib.min idx (linear_buckets + geo_buckets - 1)
    end

  let value_of_bucket i =
    if i < linear_buckets then (float_of_int i +. 0.5) *. linear_width
    else linear_limit *. (growth ** (float_of_int (i - linear_buckets) +. 0.5))

  let add t v =
    let b = bucket_of_value v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1;
    t.sum <- t.sum +. v;
    if v > t.max_v then t.max_v <- v

  let count t = t.total
  let mean t = if t.total = 0 then 0. else t.sum /. float_of_int t.total

  let percentile t p =
    if t.total = 0 then 0.
    else begin
      assert (p > 0.0 && p <= 100.0);
      let target =
        Stdlib.max 1
          (int_of_float (ceil (p /. 100.0 *. float_of_int t.total)))
      in
      let rec scan i acc =
        if i >= Array.length t.counts then t.max_v
        else begin
          let acc = acc + t.counts.(i) in
          if acc >= target then value_of_bucket i else scan (i + 1) acc
        end
      in
      scan 0 0
    end

  let max t = t.max_v
end

let median values =
  match values with
  | [] -> 0.
  | _ ->
      let sorted = List.sort Float.compare values in
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median_in_place a n =
  if n <= 0 then 0.
  else begin
    (* Pad the unused tail with +inf so a whole-array sort leaves the
       [n] real samples as the sorted prefix. *)
    Array.fill a n (Array.length a - n) infinity;
    Array.sort Float.compare a;
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  end
