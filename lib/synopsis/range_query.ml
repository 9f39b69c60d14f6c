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
let overlap (a : int) b c d =
  let lo = if a > c then a else c and hi = if b < d then b else d in
  if hi > lo then hi - lo else 0

(* Slot [t]'s term in the sum over [lo, hi]: its value times (overlap
   with its positive half - overlap with its negative half). *)
let[@inline] term s t ~lo ~hi =
  let { Synopsis.value; start; mid; stop; _ } = s in
  let left = overlap lo (hi + 1) start.(t) mid.(t) in
  let right = overlap lo (hi + 1) mid.(t) stop.(t) in
  value.(t) *. float_of_int (left - right)

(* The sum over [lo, hi] from the error-tree paths of its two ends
   (Section 2.2): c0, then at each level the ancestor of [lo] and, when
   it differs, the ancestor of [hi], each found by one rank lookup.
   Any other coefficient's support lies inside or outside [lo, hi], so
   its term is [c * 0]; adding that to a sum that starts at [+0.] never
   changes it. Path indices grow level by level, and [anc lo <= anc hi]
   within a level, so the remaining terms come in the ascending order
   of the full O(B) loop: the same bits whenever the retained values
   are finite. *)
let range_sum syn ~lo ~hi =
  let n = Synopsis.n syn in
  check_range ~n ~lo ~hi;
  let s = Synopsis.supports syn in
  let level = s.Synopsis.level in
  let levels = Array.length level - 1 in
  let acc = ref 0. in
  if level.(0) > 0 then acc := !acc +. term s 0 ~lo ~hi;
  for l = 0 to levels - 1 do
    let shift = levels - l in
    let a = (n + lo) lsr shift and b = (n + hi) lsr shift in
    let p = Synopsis.slot s a in
    if p >= 0 then acc := !acc +. term s p ~lo ~hi;
    if b <> a then begin
      let p = Synopsis.slot s b in
      if p >= 0 then acc := !acc +. term s p ~lo ~hi
    end
  done;
  !acc

(* The full-domain sum: c0's term alone. Every detail coefficient's two
   halves both lie inside [0, n), so its term is [c * 0]. *)
let[@inline] total syn =
  let s = Synopsis.supports syn in
  if s.Synopsis.level.(0) > 0 then term s 0 ~lo:0 ~hi:(Synopsis.n syn - 1)
  else 0.

(* The descent's nodes, one entry per detail level: [slot] is the
   node's slot, or -1 when it is not retained. Once the descent has
   left a node for one of its halves, every later probe covers
   [0, cover) with [cover] inside that half, so the node's term is its
   value times [base + sign * cover]: [cover - start] under the left
   half, [(mid - start) - (cover - mid)] under the right one. (c0's
   term is its value times [cover], the probed node's its value times
   [cover - lo], its left half.) Per domain, because servers evaluate
   under [Pool.map_chunked]; 63 levels cover any [n]. *)
type descent = { slot : int array; base : int array; sign : int array }

let descent_key =
  Domain.DLS.new_key (fun () ->
      {
        slot = Array.make 63 (-1);
        base = Array.make 63 0;
        sign = Array.make 63 0;
      })

(* [Wavesyn_aqp.Quantiles.search]'s bisection as one descent of the
   error tree (Section 2.2). On [[lo, hi]], a node at level [k], the
   probe [mid] is the last cell of the node's left half, so in the sum
   over [[0, mid]] only c0 and the descent's nodes at levels [0 .. k]
   have a term that is not [c * 0]: every other coefficient's support
   lies wholly inside or outside [[0, mid]]. Each node's slot is looked
   up once, when the descent reaches it, and each probe adds c0's term
   and those nodes' terms in level order: the order {!range_sum} adds
   them in, each the same product of its value and the same integer
   overlap difference, so the same bits whenever the retained values
   are finite. *)
let prefix_crossing syn ~q =
  let total = total syn in
  if total <= 0. then -1
  else begin
    let target = q *. total in
    let s = Synopsis.supports syn in
    let { Synopsis.level; value; _ } = s in
    let levels = Array.length level - 1 in
    let { slot; base; sign } = Domain.DLS.get descent_key in
    let lo = ref 0 and hi = ref (Synopsis.n syn - 1) and k = ref 0 in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let cover = mid + 1 in
      let here = Synopsis.slot s ((1 lsl !k) + (!lo lsr (levels - !k))) in
      slot.(!k) <- here;
      let acc = ref 0. in
      if level.(0) > 0 then acc := !acc +. (value.(0) *. float_of_int cover);
      for l = 0 to !k - 1 do
        let t = slot.(l) in
        if t >= 0 then
          acc := !acc +. (value.(t) *. float_of_int (base.(l) + (sign.(l) * cover)))
      done;
      if here >= 0 then acc := !acc +. (value.(here) *. float_of_int (cover - !lo));
      if !acc >= target then begin
        base.(!k) <- - !lo;
        sign.(!k) <- 1;
        hi := mid
      end
      else begin
        base.(!k) <- (2 * cover) - !lo;
        sign.(!k) <- -1;
        lo := cover
      end;
      incr k
    done;
    !lo
  end

let range_avg syn ~lo ~hi = range_sum syn ~lo ~hi /. float_of_int (hi - lo + 1)

let selectivity syn ~lo ~hi =
  let total = total syn in
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
  let contribution (flat, c) =
    let pos = Ndarray.unflatten ~dims flat in
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
