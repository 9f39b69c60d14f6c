(* Raw instrument cells. Registry wraps these with names and labels;
   here there is only mutation and readout, kept allocation-free so
   hot-path updates cost a few stores. *)

type counter = { mutable c : int }

let counter () = { c = 0 }

let incr ?(by = 1) t =
  if by < 0 then invalid_arg "Metric.incr: negative increment";
  t.c <- t.c + by

let counter_value t = t.c

type gauge = { mutable g : float }

let gauge () = { g = 0. }
let set t v = t.g <- v
let set_int t i = t.g <- float_of_int i
let gauge_value t = t.g

type histogram = {
  bnds : float array;  (* strictly increasing finite upper bounds *)
  counts : int array;  (* length bnds + 1; last cell = overflow *)
  mutable count : int;
  mutable sum : float;
  mutable min_v : float;  (* nan until the first finite observation *)
  mutable max_v : float;
}

let default_latency_bounds_ms =
  [|
    0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.;
    250.; 500.; 1000.; 2500.; 10000.;
  |]

let histogram ?(bounds = default_latency_bounds_ms) () =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metric.histogram: empty bounds";
  Array.iteri
    (fun i b ->
      if not (Float.is_finite b) then
        invalid_arg "Metric.histogram: non-finite bound";
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Metric.histogram: bounds must be strictly increasing")
    bounds;
  {
    bnds = Array.copy bounds;
    counts = Array.make (n + 1) 0;
    count = 0;
    sum = 0.;
    min_v = Float.nan;
    max_v = Float.nan;
  }

let observe t v =
  (* Small fixed n: a linear scan beats binary search in practice and
     stays branch-predictable for the common low buckets. *)
  let n = Array.length t.bnds in
  let i = ref 0 in
  while !i < n && not (v <= t.bnds.(!i)) do
    Stdlib.incr i
  done;
  t.counts.(!i) <- t.counts.(!i) + 1;
  t.count <- t.count + 1;
  if Float.is_finite v then begin
    t.sum <- t.sum +. v;
    if not (t.min_v <= v) then t.min_v <- v;
    if not (t.max_v >= v) then t.max_v <- v
  end

let hist_count t = t.count
let hist_sum t = t.sum
let hist_min t = t.min_v
let hist_max t = t.max_v
let bucket_counts t = Array.copy t.counts

let cumulative t =
  let acc = ref 0 in
  let finite =
    Array.to_list
      (Array.mapi
         (fun i b ->
           acc := !acc + t.counts.(i);
           (b, !acc))
         t.bnds)
  in
  finite @ [ (Float.infinity, t.count) ]

(* Deterministic quantile bound: a pure function of the bucket counts
   alone. Unlike {!quantile} below, no interpolation against the
   (timing-dependent, float-valued) min/max is involved, so equal
   observation multisets always export equal bounds. *)
let quantile_le t q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Metric.quantile_le: q outside [0,1]";
  if t.count = 0 then Float.nan
  else begin
    let target =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
    in
    let n = Array.length t.bnds in
    let i = ref 0 and cum = ref 0 in
    while !i < n && !cum + t.counts.(!i) < target do
      cum := !cum + t.counts.(!i);
      Stdlib.incr i
    done;
    if !i < n then t.bnds.(!i) else Float.infinity
  end

let quantile t q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Metric.quantile: q outside [0,1]";
  if t.count = 0 then Float.nan
  else begin
    let target = q *. float_of_int t.count in
    let n = Array.length t.bnds in
    let rec find i cum =
      if i > n then n
      else
        let cum = cum + t.counts.(i) in
        if float_of_int cum >= target && t.counts.(i) > 0 then i
        else if i = n then n
        else find (i + 1) cum
    in
    let i = find 0 0 in
    let below = ref 0 in
    for k = 0 to i - 1 do
      below := !below + t.counts.(k)
    done;
    let in_bucket = t.counts.(i) in
    let lo = if i = 0 then Float.min 0. t.min_v else t.bnds.(i - 1) in
    let hi = if i < n then t.bnds.(i) else t.max_v in
    let est =
      if in_bucket = 0 then hi
      else
        let frac = (target -. float_of_int !below) /. float_of_int in_bucket in
        lo +. ((hi -. lo) *. Float.max 0. (Float.min 1. frac))
    in
    (* Clamp to what was actually seen: interpolation cannot invent a
       value outside the observed range. *)
    Float.max t.min_v (Float.min t.max_v est)
  end
