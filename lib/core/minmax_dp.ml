let log_src = Logs.Src.create "wavesyn.minmax_dp" ~doc:"MinMaxErr DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Error_tree = Wavesyn_haar.Error_tree
module Float_util = Wavesyn_util.Float_util
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics

type split_strategy = Binary_search | Linear_scan

type result = {
  max_err : float;
  synopsis : Synopsis.t;
  dp_states : int;
  working_cells : int;
}

(* --- the bottom-up kernel ---

   The paper's top-down memo recursion (kept as the test oracle in
   test/oracle/minmax_reference.ml, the "reference kernel" below) with
   the same float operations, evaluated bottom-up in Theorem 3.1's
   working space instead of a memo table:

   - Forward pass. Nodes are computed in post-order, each one's whole
     row (every ancestor mask, every budget) from its two children's
     rows. A row lives in one of two arena slots at its depth (the
     parent's left or right child), so the arena holds at most
     [4 n log2 n] cells with the budget cap. The incoming
     reconstructions of a node's masks are built root-down, one array
     per depth, with the [+. c] / [-. c] additions the reference
     kernel makes. A mask's row stops where its budget plus its
     retained ancestors would exceed the root's budget: past that, no
     cell is reachable.
   - Rows above the leaves. Leaves need no rows: a node above two
     leaves computes their errors in place, and every split of its
     budget then has the same value ([bottom_row]). On the two-pointer
     path, a node one depth higher and deeper than [dstar] computes
     its row straight from its four leaves, as the split of two such
     rows has a closed form ([closed_row]); its children's rows are
     counted but never built.
   - Split search. A cell is never NaN (a split folds its candidates
     with strict [<] from [+inf]) and a row is exactly non-increasing
     in the budget (cells are mins and maxes of leaf errors, with no
     rounding). So the bisection's crossover [lo] for total [t + 1] is
     [lo t] or [lo t + 1], one comparison per cell finds it, and
     comparing the candidates [lo] then [lo - 1] with strict [<]
     gives the bisection's value. [Linear_scan] and
     [cap_budget:false] run the reference split on each cell instead
     (E12 times them).
   - Decisions. The forward pass also records, for every cell of an
     internal node at depths [1..dstar], its decision [allot lsl 1 lor
     kept]: [kept] when the keep split beat the drop split with strict
     [<], [allot] the left child's share, which is the reference
     split's (a cell whose value is [+inf] records 0, as the fold from
     [(+inf, 0)] never moves off it). [dstar] is the deepest depth such
     that depths [1..dstar] fit, with the arena, in [4 n log2 n] cells:
     a function of [(n, budget, cap_budget)].
   - Retrace. At depths up to [dstar] a node reads its decision at its
     mask (node 1's is [root_kept]; a child's is [f + kept * 2^d]).
     Deeper, choices are not stored: each node rebuilds its children's
     rows for its own ancestor prefix (two masks per child) and re-runs
     the reference split on its one cell, so it makes the reference
     kernel's choice, tie-breaks included. With a zero root budget
     nothing can be retained, and there is no retrace.

   Every computed cell, forward and retrace, is one [on_state] call
   and one [dp_states]. See docs/KERNELS.md. *)

(* Leaf [i]'s error under [incoming]. [denoms] is empty for [Abs]: its
   denominator is 1, and [x /. 1.0] is exact. *)
let[@inline] leaf_error data denoms i incoming =
  if Array.length denoms = 0 then Float.abs (data.(i) -. incoming)
  else Float.abs (data.(i) -. incoming) /. denoms.(i)

(* Row cells are never NaN, so plain comparisons are [Float.max] and
   [Float.min]. *)
let[@inline] fmax (x : float) y = if x >= y then x else y

let[@inline] fmin (x : float) y = if x < y then x else y

(* The split of a node above two leaves with errors [l] and [r]: every
   candidate has value [Float.max l r], which the strict-[<] fold from
   [+inf] keeps unless it is NaN. *)
let[@inline] leaf_split (l : float) r =
  if l >= r then l else if l < r then r else Float.infinity

(* Cell 0 of the row of a node above leaves [i] and [i + 1] at
   incoming value [v]: the split with its coefficient dropped. *)
let[@inline] leaf_drop data denoms i v =
  leaf_split (leaf_error data denoms i v) (leaf_error data denoms (i + 1) v)

(* Its cells from budget 1: the keep split (none when [c = 0.]) where
   strictly below the drop value [drop]. *)
let[@inline] leaf_best data denoms i c v drop =
  if c = 0. then drop
  else
    let keep =
      leaf_split
        (leaf_error data denoms i (v +. c))
        (leaf_error data denoms (i + 1) (v -. c))
    in
    fmin keep drop

(* The two-pointer split (see the kernel comment) of every total
   [t < count] between the child rows at [lb] and [rb] of float array
   [a], reads clamped to [top], into cells [o + t]. The drop pass
   ([merge] false) writes every cell, the keep pass only where strictly
   below the drop value there; with [record], each written cell's
   decision goes to [a.(at + t)]. Every call passes constant flags, so
   each inlines a loop of its own kind. *)
let[@inline] sweep (a : float array) lb rb top o at count ~merge ~record =
  let kept = Bool.to_int merge in
  let lo = ref 0 in
  for t = 0 to count - 1 do
    if t > 0 && not (a.(lb + Int.min !lo top) <= a.(rb + Int.min (t - !lo) top))
    then incr lo;
    let l = !lo in
    let v = fmax a.(lb + Int.min l top) a.(rb + Int.min (t - l) top) in
    let u =
      if l = 0 then Float.infinity
      else fmax a.(lb + Int.min (l - 1) top) a.(rb + Int.min (t - l + 1) top)
    in
    let cell = o + t in
    if u < v then begin
      if (not merge) || u < a.(cell) then begin
        a.(cell) <- u;
        if record then a.(at + t) <- Float.of_int (((l - 1) lsl 1) lor kept)
      end
    end
    else if (not merge) || v < a.(cell) then begin
      a.(cell) <- v;
      if record then
        a.(at + t) <-
          Float.of_int (((if v < Float.infinity then l else 0) lsl 1) lor kept)
    end
  done

(* The decision rows of depths [1..dstar] open the arena array, those
   of depth [d] at [decision_base width d]: one row per internal node,
   laid out like its arena row ([2^d] masks of [width.(d)] budgets), so
   2^(2d - 1) * width.(d) cells per depth. A decision is a small int,
   exact as a float cell. *)
let decision_base width d =
  let cells = ref 0 in
  for k = 1 to d - 1 do
    cells := !cells + ((1 lsl ((2 * k) - 1)) * width.(k))
  done;
  !cells

(* Node [x]'s decision at depth [d], mask [g] and budget [b]. *)
let[@inline] decision_cell width x d g b =
  decision_base width d + ((((x - (1 lsl (d - 1))) lsl d) + g) * width.(d)) + b

(* A bit set over node indices, 32 to an int. *)
let[@inline] set_bit bits x =
  bits.(x lsr 5) <- bits.(x lsr 5) lor (1 lsl (x land 31))

let[@inline] bit bits x = bits.(x lsr 5) land (1 lsl (x land 31)) <> 0

(* What one run of the kernel answers: the solve at its budget, or,
   from the root's row alone with no retrace, the smallest budget whose
   optimal error is at most a target (see [budget_for]). *)
type _ answer = Solution : result answer | First_within : float -> int answer

(* The root's cells at budget [b], node 1's row at arena index [row]
   with [w] cells per mask: node 0 dropped (mask 0 at [b]) or retained
   (mask 1 at [b - 1]), retained when strictly below; over a single
   leaf, its errors. A cell holds the best error with at most [b]
   coefficients, so one forward pass holds every smaller budget's. *)
let[@inline] root_cell a data denoms row w c0 ~kept b =
  if Array.length data = 1 then
    leaf_error data denoms 0 (if kept then 0. +. c0 else 0.)
  else if kept then a.(row + w + Int.min (b - 1) (w - 1))
  else a.(row + Int.min b (w - 1))

let[@inline] root_kept a data denoms row w c0 b =
  b > 0 && c0 <> 0.
  && root_cell a data denoms row w c0 ~kept:true b
     < root_cell a data denoms row w c0 ~kept:false b

let kernel (type a) ?(split = Binary_search) ?(cap_budget = true) ?on_state
    ~tree ~budget metric (answer : a answer) : a =
  if budget < 0 then invalid_arg "Minmax_dp.solve: negative budget";
  let n = Error_tree.n tree in
  let coeffs = Error_tree.coeffs tree and data = Error_tree.data tree in
  let denoms =
    match metric with
    | Metrics.Abs -> [||]
    | Metrics.Rel _ -> Array.map (Metrics.denominator metric) data
  in
  let levels = Float_util.floor_log2 n in
  (* Row width at depth [d]: the budget coordinate runs to the
     subtree's coefficient count (capped) or to the full budget. *)
  let width =
    Array.init (levels + 1) (fun d ->
        let j = if d = 0 then 0 else 1 lsl (d - 1) in
        (if cap_budget then
           Int.min budget (Error_tree.subtree_coeff_count tree j)
         else budget)
        + 1)
  in
  (* Decision rows first, in the room the arena leaves of
     [4 n log2 n] cells: depths [1..dstar] each store one row per
     internal node (see [decision_base]), as deep as they fit. *)
  let arena = ref 0 in
  for d = 1 to levels do
    arena := !arena + (2 * (1 lsl d) * width.(d))
  done;
  let dstar = ref 0 in
  while
    !dstar + 1 < levels
    && decision_base width (!dstar + 2) + !arena <= 4 * n * levels
  do
    incr dstar
  done;
  let dstar = !dstar in
  let two_pointer = split = Binary_search && cap_budget in
  (* Whether the rows one depth above the leaves' parents are computed
     in closed form ([closed_row]): only the two-pointer split's value
     is the closed form's, and a depth that records decisions needs its
     splits' allotments. *)
  let closed = two_pointer && levels - 1 > dstar in
  (* Arena slot [2d + side]: the row of the depth-[d] node that is its
     parent's left ([side] 0) or right child, mask-major. *)
  let slot = Array.make (2 * (levels + 1)) 0 in
  let cells = ref (decision_base width (dstar + 1)) in
  for d = 1 to levels do
    for side = 0 to 1 do
      slot.((2 * d) + side) <- !cells;
      cells := !cells + ((1 lsl d) * width.(d))
    done
  done;
  let a = Array.make !cells 0. in
  (* A cell [(mask, b)] is reachable only if [b] plus the retained
     ancestors in [mask] fit in the root's budget [b0], so a mask's row
     stops at [b0 - popcount mask] and is empty past it. A retrace pass
     counts only its free mask bits: looser, but it keeps the cell
     count a function of the shape alone. *)
  let b0 = if cap_budget then Int.min budget n else budget in
  let pop = Bytes.make (1 lsl levels) '\000' in
  for f = 1 to (1 lsl levels) - 1 do
    Bytes.set_uint8 pop f (Bytes.get_uint8 pop (f lsr 1) + (f land 1))
  done;
  (* The incoming values of the current depth-[d] node, one per mask,
     start at [(1 lsl d) - 1]. With [closed], only the retrace descends
     to the leaves' parents, from one mask: two values at depth
     [levels]. *)
  let inc =
    Array.make (if closed then (1 lsl levels) + 1 else (2 lsl levels) - 1) 0.
  in
  let states = ref 0 in
  let tick k =
    states := !states + k;
    match on_state with
    | None -> ()
    | Some f ->
        for _ = 1 to k do
          f ()
        done
  in
  (* The incoming values of [x]'s left or right child, from the [m]
     masks of [x] at depth [d]: masks [f] drop [c_x], masks [m + f]
     retain it. *)
  let descend x d m ~left =
    let src = (1 lsl d) - 1 and dst = (2 lsl d) - 1 and c = coeffs.(x) in
    for f = 0 to m - 1 do
      let v = inc.(src + f) in
      inc.(dst + f) <- v;
      inc.(dst + m + f) <- (if left then v +. c else v -. c)
    done
  in
  (* The row of node [x] above two leaves: drop and keep each settle
     on the larger leaf error. *)
  let bottom_row x d m out =
    let w = width.(d) and c = coeffs.(x) and i = (2 * x) - n in
    let src = (1 lsl d) - 1 in
    let cells = ref 0 in
    for f = 0 to m - 1 do
      let top = Int.min (w - 1) (b0 - Bytes.get_uint8 pop f) in
      if top >= 0 then begin
        cells := !cells + top + 1;
        let v = inc.(src + f) and o = out + (f * w) in
        let drop = leaf_drop data denoms i v in
        a.(o) <- drop;
        if top > 0 then begin
          let best = leaf_best data denoms i c v drop in
          for b = 1 to top do
            a.(o + b) <- best
          done
        end
      end
    done;
    tick !cells
  in
  (* The reference split of [total] between the child rows at [lb] and
     [rb] (reads clamped to their width [wc]): bisection or linear
     scan, candidates folded with strict [<] from (+inf, 0). Leaves the
     value in [sv.(0)] and returns the left allotment. *)
  let sv = Array.make 1 0. and sb = ref 0 in
  let consider lb rb top total b' =
    let v = fmax a.(lb + Int.min b' top) a.(rb + Int.min (total - b') top) in
    if v < sv.(0) then begin
      sv.(0) <- v;
      sb := b'
    end
  in
  let split_cell lb rb wc total =
    let top = wc - 1 in
    sv.(0) <- Float.infinity;
    sb := 0;
    (match split with
    | Linear_scan ->
        for b' = 0 to total do
          consider lb rb top total b'
        done
    | Binary_search ->
        let lo = ref 0 and hi = ref total in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if a.(lb + Int.min mid top) <= a.(rb + Int.min (total - mid) top)
          then hi := mid
          else lo := mid + 1
        done;
        consider lb rb top total !lo;
        if !lo > 0 then consider lb rb top total (!lo - 1));
    !sb
  in
  (* Cells [o + shift + t] for [t < count]: the best split of total [t]
     between the child rows at [lb] and [rb]; with [merge] (the keep
     split), written only where strictly below the (drop) value already
     there. With [at >= 0], each written cell's decision goes to
     [a.(at + shift + t)]. *)
  let split_row lb rb wc o ~shift ~count ~merge ~at =
    if two_pointer then begin
      let top = wc - 1 and o = o + shift in
      if at < 0 then
        if merge then sweep a lb rb top o 0 count ~merge:true ~record:false
        else sweep a lb rb top o 0 count ~merge:false ~record:false
      else
        let at = at + shift in
        if merge then sweep a lb rb top o at count ~merge:true ~record:true
        else sweep a lb rb top o at count ~merge:false ~record:true
    end
    else
      let kept = Bool.to_int merge in
      for t = 0 to count - 1 do
        let allot = split_cell lb rb wc t in
        let cell = o + shift + t in
        if (not merge) || sv.(0) < a.(cell) then begin
          a.(cell) <- sv.(0);
          if at >= 0 then
            a.(at + shift + t) <- Float.of_int ((allot lsl 1) lor kept)
        end
      done
  in
  (* The row of node [x] from its children's rows: per mask, the drop
     split of every budget, then the keep split where strictly better. *)
  let internal_row x d m out =
    let w = width.(d) and wc = width.(d + 1) and c = coeffs.(x) in
    let l0 = slot.(2 * (d + 1)) and r0 = slot.((2 * (d + 1)) + 1) in
    let drow = if d <= dstar then decision_cell width x d 0 0 else -1 in
    let cells = ref 0 in
    for f = 0 to m - 1 do
      let top = Int.min (w - 1) (b0 - Bytes.get_uint8 pop f) in
      if top >= 0 then begin
        cells := !cells + top + 1;
        let o = out + (f * w)
        and at = if drow >= 0 then drow + (f * w) else -1 in
        split_row (l0 + (f * wc)) (r0 + (f * wc)) wc o ~shift:0
          ~count:(top + 1) ~merge:false ~at;
        if c <> 0. then
          split_row
            (l0 + ((m + f) * wc))
            (r0 + ((m + f) * wc))
            wc o ~shift:1 ~count:top ~merge:true ~at
      end
    done;
    tick !cells
  in
  (* The row of node [x] one depth above the leaves' parents, from its
     four leaves. A child's row is its drop value [D] and, from budget
     1, its best value [M <= D], so the split of total [t] between the
     children [y] and [z] is [max Dy Dz] at [t = 0], [min (max Dy Mz)
     (max My Dz)] at [t = 1] and [max My Mz] past it: the two-pointer
     split's value, bit for bit. The children's rows are counted (two
     masks per mask of [x]), not built. Allocated only when the solve
     uses it. *)
  let closed_row =
    if not closed then None
    else
      Some
        (fun x d m out ->
          let w = width.(d) and wc = width.(d + 1) and c = coeffs.(x) in
          let cy = coeffs.(2 * x) and cz = coeffs.((2 * x) + 1) in
          let src = (1 lsl d) - 1 and i = (4 * x) - n in
          let cells = ref 0 in
          for f = 0 to m - 1 do
            let free = b0 - Bytes.get_uint8 pop f in
            if free >= 0 then begin
              let top = Int.min (w - 1) free in
              cells := !cells + top + 1 + (2 * (Int.min (wc - 1) free + 1));
              if free > 0 then
                cells := !cells + (2 * (Int.min (wc - 1) (free - 1) + 1));
              let v = inc.(src + f) and o = out + (f * w) in
              let dy = leaf_drop data denoms i v
              and dz = leaf_drop data denoms (i + 2) v in
              a.(o) <- fmax dy dz;
              if top > 0 then begin
                let my = leaf_best data denoms i cy v dy
                and mz = leaf_best data denoms (i + 2) cz v dz in
                let d1 = fmin (fmax dy mz) (fmax my dz) and d2 = fmax my mz in
                if c = 0. then begin
                  a.(o + 1) <- d1;
                  for t = 2 to top do
                    a.(o + t) <- d2
                  done
                end
                else begin
                  (* The keep split of [t - 1], children at [v +. c] and
                     [v -. c], where strictly below the drop split. *)
                  let vy = v +. c and vz = v -. c in
                  let ey = leaf_drop data denoms i vy
                  and ez = leaf_drop data denoms (i + 2) vz in
                  a.(o + 1) <- fmin (fmax ey ez) d1;
                  if top > 1 then begin
                    let ny = leaf_best data denoms i cy vy ey
                    and nz = leaf_best data denoms (i + 2) cz vz ez in
                    a.(o + 2) <- fmin (fmin (fmax ey nz) (fmax ny ez)) d2;
                    if top > 2 then a.(o + 3) <- fmin (fmax ny nz) d2
                  end
                end
              end
            end
          done;
          tick !cells)
  in
  (* The row of node [x] at depth [d] over its [m] masks, whose
     incoming values are in place, into [x]'s arena slot. *)
  let rec build x d m =
    let out = slot.((2 * d) + (x land 1)) in
    if 2 * x >= n then bottom_row x d m out
    else
      match closed_row with
      | Some row when 4 * x >= n -> row x d m out
      | _ ->
          children x d m;
          internal_row x d m out
  (* The rows of both children of [x], over [2m] masks each. *)
  and children x d m =
    descend x d m ~left:true;
    build (2 * x) (d + 1) (2 * m);
    descend x d m ~left:false;
    build ((2 * x) + 1) (d + 1) (2 * m)
  in
  (* The root: node 1's row over both root masks. *)
  let c0 = coeffs.(0) in
  inc.(0) <- 0.;
  if n > 1 then begin
    descend 0 0 1 ~left:true;
    build 1 1 2
  end;
  tick 1;
  let row = if n = 1 then 0 else slot.(3)
  and w = if n = 1 then 0 else width.(1) in
  match answer with
  | First_within target ->
      let err b =
        root_cell a data denoms row w c0
          ~kept:(root_kept a data denoms row w c0 b)
          b
      in
      let rec first b =
        if b = b0 || err b <= target then b else first (b + 1)
      in
      first 0
  | Solution ->
      let root_kept = root_kept a data denoms row w c0 b0 in
      let max_err = root_cell a data denoms row w c0 ~kept:root_kept b0 in
      (* Retrace node [x] at depth [d] and mask [g] under allotment
         [b], its incoming value at [inc.((1 lsl d) - 1)], marking the
         retained coefficients in the bit set [kept_at]. *)
      let kept_at = Array.make ((n + 31) lsr 5) 0 in
      let rec trace x d g b =
        let b = Int.min b (width.(d) - 1) in
        let out = slot.((2 * d) + (x land 1)) in
        if 2 * x >= n then begin
          (* Row cell [b > 0] is below cell 0 exactly when keeping wins. *)
          bottom_row x d 1 out;
          if b > 0 && a.(out + b) < a.(out) then set_bit kept_at x
        end
        else begin
          let c = coeffs.(x) in
          let decision =
            if d <= dstar then int_of_float a.(decision_cell width x d g b)
            else begin
              children x d 1;
              tick 1;
              let wc = width.(d + 1) in
              let l0 = slot.(2 * (d + 1)) and r0 = slot.((2 * (d + 1)) + 1) in
              let drop_allot = split_cell l0 r0 wc b in
              let drop = sv.(0) in
              let keep_allot =
                if b > 0 && c <> 0. then
                  split_cell (l0 + wc) (r0 + wc) wc (b - 1)
                else -1
              in
              if keep_allot >= 0 && sv.(0) < drop then (keep_allot lsl 1) lor 1
              else drop_allot lsl 1
            end
          in
          let kept = decision land 1 = 1 and allot = decision lsr 1 in
          if kept then set_bit kept_at x;
          let g = g + (Bool.to_int kept lsl d) in
          let here = (1 lsl d) - 1 and below = (2 lsl d) - 1 in
          let v = inc.(here) in
          inc.(below) <- (if kept then v +. c else v);
          trace (2 * x) (d + 1) g allot;
          inc.(below) <- (if kept then v -. c else v);
          trace ((2 * x) + 1) (d + 1) g (b - Bool.to_int kept - allot)
        end
      in
      if root_kept then set_bit kept_at 0;
      if n > 1 && b0 > 0 then begin
        inc.(1) <- (if root_kept then inc.(0) +. c0 else inc.(0));
        trace 1 1 (Bool.to_int root_kept) (b0 - Bool.to_int root_kept)
      end;
      (* In ascending index order, so the synopsis needs no sort. *)
      let retained = ref [] in
      for j = n - 1 downto 0 do
        if bit kept_at j then retained := (j, coeffs.(j)) :: !retained
      done;
      let synopsis = Synopsis.make ~n !retained in
      let r =
        {
          max_err;
          synopsis;
          dp_states = !states;
          working_cells = Array.length a;
        }
      in
      Log.debug (fun m ->
          m "solved n=%d budget=%d cells=%d working=%d max_err=%g" n budget
            r.dp_states r.working_cells r.max_err);
      r

let solve_tree ?split ?cap_budget ?on_state ~tree ~budget metric =
  kernel ?split ?cap_budget ?on_state ~tree ~budget metric Solution

type budget_search = { best : result; budget : int; feasible : bool }

let budget_for ~data ~target metric =
  if not (Float_util.is_pow2 (Array.length data)) then
    invalid_arg "Minmax_dp.budget_for: data length must be a power of two";
  let tree = Error_tree.of_data data in
  (* A solve at budget 0 costs a fraction of a forward pass, and a
     loose target needs nothing more. *)
  let zero = solve_tree ~tree ~budget:0 metric in
  if zero.max_err <= target then { best = zero; budget = 0; feasible = true }
  else
    (* The optimum is non-increasing in the budget and bottoms out at
       the count of nonzero coefficients: one forward pass there holds
       it for every smaller budget, and the answer is the first budget
       whose optimum is at most the target. *)
    let nonzero =
      Array.fold_left
        (fun acc c -> if c <> 0. then acc + 1 else acc)
        0 (Error_tree.coeffs tree)
    in
    let budget = kernel ~tree ~budget:nonzero metric (First_within target) in
    let best = if budget = 0 then zero else solve_tree ~tree ~budget metric in
    { best; budget; feasible = best.max_err <= target }

let solve ?split ?cap_budget ?on_state ~data ~budget metric =
  if not (Float_util.is_pow2 (Array.length data)) then
    invalid_arg "Minmax_dp.solve: data length must be a power of two";
  solve_tree ?split ?cap_budget ?on_state ~tree:(Error_tree.of_data data)
    ~budget metric
