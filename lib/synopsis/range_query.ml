module Ndarray = Wavesyn_util.Ndarray
module Float_util = Wavesyn_util.Float_util

let check_range ~n ~lo ~hi =
  if lo < 0 || hi >= n || lo > hi then
    invalid_arg "Range_query: invalid range bounds"

let range_sum_exact data ~lo ~hi =
  check_range ~n:(Array.length data) ~lo ~hi;
  let acc = ref 0. in
  for i = lo to hi do
    acc := !acc +. data.(i)
  done;
  !acc

(* Length of the intersection of half-open intervals [a, b) and [c, d). *)
let overlap a b c d = Stdlib.max 0 (Stdlib.min b d - Stdlib.max a c)

(* One pass over the precomputed supports: each coefficient adds
   [c * (overlap with its positive half - overlap with its negative
   half)]. *)
let range_sum syn ~lo ~hi =
  check_range ~n:(Synopsis.n syn) ~lo ~hi;
  let { Synopsis.value; start; mid; stop } = Synopsis.supports syn in
  let acc = ref 0. in
  for t = 0 to Array.length value - 1 do
    let left = overlap lo (hi + 1) start.(t) mid.(t) in
    let right = overlap lo (hi + 1) mid.(t) stop.(t) in
    acc := !acc +. (value.(t) *. float_of_int (left - right))
  done;
  !acc

let range_avg syn ~lo ~hi = range_sum syn ~lo ~hi /. float_of_int (hi - lo + 1)

let selectivity syn ~lo ~hi =
  let n = Synopsis.n syn in
  let total = range_sum syn ~lo:0 ~hi:(n - 1) in
  if total <= 0. then 0. else range_sum syn ~lo ~hi /. total

let range_sum_bounded syn ~per_cell_bound ~lo ~hi =
  if per_cell_bound < 0. then
    invalid_arg "Range_query.range_sum_bounded: negative bound";
  let estimate = range_sum syn ~lo ~hi in
  (estimate, float_of_int (hi - lo + 1) *. per_cell_bound)

let range_sum_exact_md data ~ranges =
  let dims = Ndarray.dims data in
  if Array.length ranges <> Array.length dims then
    invalid_arg "Range_query: range rank mismatch";
  Array.iteri
    (fun k (lo, hi) -> check_range ~n:dims.(k) ~lo ~hi)
    ranges;
  let acc = ref 0. in
  Ndarray.iteri
    (fun idx v ->
      let inside = ref true in
      Array.iteri
        (fun k (lo, hi) -> if idx.(k) < lo || idx.(k) > hi then inside := false)
        ranges;
      if !inside then acc := !acc +. v)
    data;
  !acc

let range_sum_md syn ~ranges =
  let dims = Synopsis.Md.dims syn in
  let d = Array.length dims in
  if Array.length ranges <> d then
    invalid_arg "Range_query: range rank mismatch";
  Array.iteri (fun k (lo, hi) -> check_range ~n:dims.(k) ~lo ~hi) ranges;
  let n = dims.(0) in
  let probe = Ndarray.create ~dims 0. in
  let contribution (flat, c) =
    let pos = Ndarray.index_of_flat probe flat in
    (* Scale of the coefficient: the largest coordinate determines the
       level; the origin is the overall average. *)
    let m = Array.fold_left Stdlib.max 0 pos in
    if m = 0 then
      c
      *. Array.fold_left
           (fun acc (lo, hi) -> acc *. float_of_int (hi - lo + 1))
           1. ranges
    else begin
      let s = 1 lsl Float_util.floor_log2 m in
      let width = n / s in
      let factor = ref 1. in
      for k = 0 to d - 1 do
        let lo, hi = ranges.(k) in
        let detail = pos.(k) >= s in
        let q = if detail then pos.(k) - s else pos.(k) in
        let a = q * width in
        let b = a + width in
        let f =
          if detail then begin
            let mid = (a + b) / 2 in
            float_of_int
              (overlap lo (hi + 1) a mid - overlap lo (hi + 1) mid b)
          end
          else float_of_int (overlap lo (hi + 1) a b)
        in
        factor := !factor *. f
      done;
      c *. !factor
    end
  in
  List.fold_left
    (fun acc pair -> acc +. contribution pair)
    0.
    (Synopsis.Md.coeffs syn)
