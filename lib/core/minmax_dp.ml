let log_src = Logs.Src.create "wavesyn.minmax_dp" ~doc:"MinMaxErr DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Error_tree = Wavesyn_haar.Error_tree
module Float_util = Wavesyn_util.Float_util
module Pool = Wavesyn_par.Pool
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics

type split_strategy = Binary_search | Linear_scan

type impl = Flat | Reference

type result = { max_err : float; synopsis : Synopsis.t; dp_states : int }

type entry = { value : float; retained : bool; left_allot : int }

(* The reference kernel's budget split. Minimize max (f b', g (total -
   b')) for b' in [0, total], where f is non-increasing and g
   non-decreasing in their own argument: binary search for the
   crossover, then compare the two adjacent candidates. The linear scan
   exists for the ablation experiment (E12). *)
let best_split ~strategy ~total ~f ~g =
  match strategy with
  | Linear_scan ->
      let best_v = ref Float.infinity and best_b = ref 0 in
      for b' = 0 to total do
        let v = Float.max (f b') (g (total - b')) in
        if v < !best_v then begin
          best_v := v;
          best_b := b'
        end
      done;
      (!best_v, !best_b)
  | Binary_search ->
      let lo = ref 0 and hi = ref total in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if f mid <= g (total - mid) then hi := mid else lo := mid + 1
      done;
      let candidates = if !lo > 0 then [ !lo; !lo - 1 ] else [ !lo ] in
      let eval b' = Float.max (f b') (g (total - b')) in
      List.fold_left
        (fun (best_v, best_b) b' ->
          let v = eval b' in
          if v < best_v then (v, b') else (best_v, best_b))
        (Float.infinity, 0) candidates

(* --- the reference kernel: the original tuple-keyed memo Hashtbl ---

   Kept verbatim as the equivalence oracle for the flat kernel
   (test/test_kernels.ml asserts bit-identical results). *)
let solve_tree_reference ~split ~cap_budget ~on_state ~tree ~budget metric =
  let n = Error_tree.n tree in
  let coeffs = Error_tree.coeffs tree in
  let data = Error_tree.data tree in
  let memo : (int * int * int, entry) Hashtbl.t = Hashtbl.create 4096 in
  let leaf_error j incoming =
    let d = data.(j - n) in
    Float.abs (d -. incoming) /. Metrics.denominator metric d
  in
  (* Budget beyond the number of coefficients in the subtree cannot be
     used; capping keeps the state space small near the leaves (the
     uncapped variant exists for the ablation experiment E12). *)
  let cap j b =
    if cap_budget then Stdlib.min b (Error_tree.subtree_coeff_count tree j)
    else b
  in
  let rec solve j b mask incoming =
    if j >= n then leaf_error j incoming
    else begin
      let b = cap j b in
      match Hashtbl.find_opt memo (j, b, mask) with
      | Some e -> e.value
      | None ->
          on_state ();
          let c = coeffs.(j) in
          let bit = 1 lsl Error_tree.depth tree j in
          let drop_value, drop_allot =
            if j = 0 then (solve 1 b mask incoming, b)
            else
              best_split ~strategy:split ~total:b
                ~f:(fun b' -> solve (2 * j) b' mask incoming)
                ~g:(fun b'' -> solve ((2 * j) + 1) b'' mask incoming)
          in
          let keep =
            if b = 0 || c = 0. then None
            else if j = 0 then
              Some (solve 1 (b - 1) (mask lor bit) (incoming +. c), b - 1)
            else begin
              let v, b' =
                best_split ~strategy:split ~total:(b - 1)
                  ~f:(fun b' -> solve (2 * j) b' (mask lor bit) (incoming +. c))
                  ~g:(fun b'' ->
                    solve ((2 * j) + 1) b'' (mask lor bit) (incoming -. c))
              in
              Some (v, b')
            end
          in
          let entry =
            match keep with
            | Some (kv, kb) when kv < drop_value ->
                { value = kv; retained = true; left_allot = kb }
            | _ ->
                { value = drop_value; retained = false; left_allot = drop_allot }
          in
          Hashtbl.replace memo (j, b, mask) entry;
          entry.value
    end
  in
  let max_err = solve 0 budget 0 0. in
  (* Retrace the memoized choices to materialize the synopsis. *)
  let rec trace j b mask incoming acc =
    if j >= n then acc
    else begin
      let b = cap j b in
      let e = Hashtbl.find memo (j, b, mask) in
      let c = coeffs.(j) in
      let bit = 1 lsl Error_tree.depth tree j in
      if e.retained then begin
        let acc = j :: acc in
        if j = 0 then trace 1 (b - 1) (mask lor bit) (incoming +. c) acc
        else begin
          let acc =
            trace (2 * j) e.left_allot (mask lor bit) (incoming +. c) acc
          in
          trace
            ((2 * j) + 1)
            (b - 1 - e.left_allot)
            (mask lor bit) (incoming -. c) acc
        end
      end
      else if j = 0 then trace 1 b mask incoming acc
      else begin
        let acc = trace (2 * j) e.left_allot mask incoming acc in
        trace ((2 * j) + 1) (b - e.left_allot) mask incoming acc
      end
    end
  in
  let retained = trace 0 budget 0 0. [] in
  let synopsis =
    Synopsis.make ~n (List.map (fun j -> (j, coeffs.(j))) retained)
  in
  Log.debug (fun m ->
      m "solved n=%d budget=%d states=%d max_err=%g" n budget
        (Hashtbl.length memo) max_err);
  { max_err; synopsis; dp_states = Hashtbl.length memo }

(* --- the flat kernel ---

   Same recurrence, same evaluation order (bit-identical results, the
   same dp_states count, the same fresh states in the same order), but
   the memo is contiguous storage and computing a state allocates
   nothing:

   - [probe j b mask d] returns an int index into the unboxed [cells]
     array, never a float (a float result would be boxed on every
     call). A leaf's error goes to the reserved scratch cell 0, from
     per-leaf precomputed denominators; callers read a probe's value
     before the next probe.
   - The incoming reconstruction of the node at recursion depth [d] is
     [inc.(d)]. A parent sets [inc.(d + 1)] before each child probe —
     [incoming +. c] / [incoming -. c], the very additions the
     reference kernel makes — so no float crosses a call boundary.
   - The budget split (bisection, or the E12 linear scan) and the
     candidate compare are loops in [decide]; [pair] leaves the two
     children's values in the per-depth [left_v]/[right_v] slots, and
     computes leaf children in place instead of probing them.
   - A state is one float cell holding its value; [-1.] marks an
     unvisited state (an error is never negative). The choice behind a
     value is not stored: the retrace re-runs [decide] on the O(n)
     states along the optimal path, whose children are all computed by
     then, so it re-derives the same choice from memo hits.
   - Each (node, ancestor-mask) budget row starts at a base index.
     Dense layout, when the whole table (sum over nodes of
     [2^depth * row_width] states) fits under [dense_limit]: one
     preallocated table ordered by depth, then mask, then node, so the
     two children a split compares have adjacent rows; the base is
     [node_off.(j) + mask * stride.(j)]. Spill layout otherwise: rows
     carved on first touch from a doubling arena, their base found by
     the int key [(mask lsl node_bits) lor j].

   See docs/KERNELS.md for the layout contract and its measured
   effect. *)

let default_dense_limit = 1 lsl 22

type table = {
  mutable cells : float array;
  mutable used : int;  (** spill layout: the arena's first free cell *)
}

let grow t need =
  let cap = ref (Array.length t.cells) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let cells = Array.make !cap (-1.) in
  Array.blit t.cells 0 cells 0 t.used;
  t.cells <- cells

let[@inline] leaf_error x incoming denom = Float.abs (x -. incoming) /. denom

let solve_tree_flat ~split ~cap_budget ~on_state ~dense_limit ~tree ~budget
    metric =
  let n = Error_tree.n tree in
  let coeffs = Error_tree.coeffs tree in
  let data = Error_tree.data tree in
  let denoms = Array.map (Metrics.denominator metric) data in
  (* Row width per node: the budget coordinate is capped at the
     subtree's coefficient count (default) or runs to the full budget
     (uncapped ablation). Either way it depends on the depth only. *)
  let widths =
    Array.init n (fun j ->
        (if cap_budget then
           Int.min budget (Error_tree.subtree_coeff_count tree j)
         else budget)
        + 1)
  in
  let depths = Array.init n (fun j -> Error_tree.depth tree j) in
  let node_bits =
    let b = ref 1 in
    while 1 lsl !b < n do incr b done;
    !b
  in
  (* Predicted dense size in states; [-1] when it overflows the limit
     and rows must be carved lazily instead. *)
  let dense_total =
    let t = ref 0 in
    (try
       for j = 0 to n - 1 do
         t := !t + ((1 lsl depths.(j)) * widths.(j));
         if !t > dense_limit then raise Exit
       done
     with Exit -> t := -1);
    !t
  in
  let dense = dense_total >= 0 in
  (* Cell 0 is the leaf scratch cell; rows start at cell 1. Depth
     [D >= 1] holds the [2^(D-1)] nodes from [2^(D-1)]; the root is
     alone at depth 0. *)
  let node_off = Array.make (if dense then n else 0) 0 in
  let stride = Array.make (if dense then n else 0) 0 in
  if dense then begin
    let base = ref 1 in
    for j = 0 to n - 1 do
      let d = depths.(j) in
      let first = if j = 0 then 0 else 1 lsl (d - 1) in
      let count = Int.max 1 first in
      node_off.(j) <- !base + ((j - first) * widths.(j));
      stride.(j) <- count * widths.(j);
      if j = first + count - 1 then
        base := !base + ((1 lsl d) * count * widths.(j))
    done
  end;
  let t =
    { cells = Array.make (1 + if dense then dense_total else 4096) (-1.);
      used = 1 }
  in
  let rows : (int, int) Hashtbl.t = Hashtbl.create (if dense then 1 else 4096) in
  let spill_row j mask =
    let key = (mask lsl node_bits) lor j in
    match Hashtbl.find rows key with
    | base -> base
    | exception Not_found ->
        let base = t.used in
        let need = base + widths.(j) in
        if need > Array.length t.cells then grow t need;
        t.used <- need;
        Hashtbl.add rows key base;
        base
  in
  (* Per recursion depth: the incoming reconstruction, [pair]'s
     left/right child values and the split's running best. Leaves sit
     at depth [log2 n + 1]. *)
  let inc = Array.make (node_bits + 2) 0. in
  let left_v = Array.make (node_bits + 2) 0. in
  let right_v = Array.make (node_bits + 2) 0. in
  let best_v = Array.make (node_bits + 2) 0. in
  let best_b = Array.make (node_bits + 2) 0 in
  (* Fold the split at [b'], whose child values [pair] just left at
     depth [d], into that depth's running best: strict [<], from
     (+inf, 0). *)
  let consider d b' =
    let v = Float.max left_v.(d) right_v.(d) in
    if v < best_v.(d) then begin
      best_v.(d) <- v;
      best_b.(d) <- b'
    end
  in
  let cap j b = if cap_budget then Int.min b (widths.(j) - 1) else b in
  let states = ref 0 in
  let rec probe j b mask d =
    if j >= n then begin
      let i = j - n in
      t.cells.(0) <- leaf_error data.(i) inc.(d) denoms.(i);
      0
    end
    else begin
      let b = cap j b in
      let at =
        (if dense then node_off.(j) + (mask * stride.(j))
         else spill_row j mask)
        + b
      in
      if t.cells.(at) < 0. then begin
        on_state ();
        incr states;
        ignore (decide j b mask d);
        t.cells.(at) <- best_v.(d)
      end;
      at
    end
  (* Both children of [j] (at depth [d]) under a split giving [b'] of
     [total] to the left, [keep] selecting the retained-[c_j] incoming
     values. The right child is probed first: that is the order the
     reference kernel's [f mid <= g (total - mid)] evaluates in. *)
  and pair j ~keep ~total b' mask d =
    let c = coeffs.(j) and r = (2 * j) + 1 in
    if r > n then begin
      (* Leaf children: errors computed in place, whatever the split. *)
      let i = r - n in
      right_v.(d) <-
        leaf_error data.(i) (if keep then inc.(d) -. c else inc.(d)) denoms.(i);
      left_v.(d) <-
        leaf_error data.(i - 1)
          (if keep then inc.(d) +. c else inc.(d))
          denoms.(i - 1)
    end
    else begin
      let d' = d + 1 in
      inc.(d') <- (if keep then inc.(d) -. c else inc.(d));
      let at = probe r (total - b') mask d' in
      right_v.(d) <- t.cells.(at);
      inc.(d') <- (if keep then inc.(d) +. c else inc.(d));
      let at = probe (2 * j) b' mask d' in
      left_v.(d) <- t.cells.(at)
    end
  (* Decide state (j, b, mask), [b] capped: drop [c_j] (split [b]),
     then keep it (split [b - 1]) when possible, keeping only a
     strictly better value. Leaves the value in [best_v.(d)] and
     returns the packed choice [(left_allot lsl 1) lor retained]. *)
  and decide j b mask d =
    let c = coeffs.(j) in
    let can_keep = b > 0 && c <> 0. in
    let value = ref 0. and packed = ref 0 in
    if j = 0 then begin
      inc.(1) <- inc.(0);
      let i = probe 1 b mask 1 in
      value := t.cells.(i);
      packed := b lsl 1;
      if can_keep then begin
        inc.(1) <- inc.(0) +. c;
        let i = probe 1 (b - 1) (mask lor 1) 1 in
        let v = t.cells.(i) in
        if v < !value then begin
          value := v;
          packed := ((b - 1) lsl 1) lor 1
        end
      end
    end
    else
      for pass = 0 to Bool.to_int can_keep do
        let keep = pass = 1 in
        let total = b - pass in
        let mask = if keep then mask lor (1 lsl depths.(j)) else mask in
        (* Minimize max (left b', right (total - b')) over b' in
           [0, total]. *)
        best_v.(d) <- Float.infinity;
        best_b.(d) <- 0;
        (match split with
        | Linear_scan ->
            for b' = 0 to total do
              pair j ~keep ~total b' mask d;
              consider d b'
            done
        | Binary_search ->
            (* The left child's error is non-increasing in its
               allotment and the right's non-decreasing in b': bisect
               for the crossover ([<=] goes left), then compare the
               candidates [lo] and [lo - 1]. The bisection's last
               pairs at [hi] and at [lo - 1] are kept, so a candidate
               it already probed is not probed again. *)
            let lo = ref 0 and hi = ref total in
            let hi_seen = ref false and hi_l = ref 0. and hi_r = ref 0. in
            let lo_seen = ref false and lo_l = ref 0. and lo_r = ref 0. in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              pair j ~keep ~total mid mask d;
              if left_v.(d) <= right_v.(d) then begin
                hi := mid;
                hi_seen := true;
                hi_l := left_v.(d);
                hi_r := right_v.(d)
              end
              else begin
                lo := mid + 1;
                lo_seen := true;
                lo_l := left_v.(d);
                lo_r := right_v.(d)
              end
            done;
            if !hi_seen then begin
              left_v.(d) <- !hi_l;
              right_v.(d) <- !hi_r
            end
            else pair j ~keep ~total !lo mask d;
            consider d !lo;
            if !lo > 0 then begin
              if !lo_seen then begin
                left_v.(d) <- !lo_l;
                right_v.(d) <- !lo_r
              end
              else pair j ~keep ~total (!lo - 1) mask d;
              consider d (!lo - 1)
            end);
        if not keep then begin
          value := best_v.(d);
          packed := best_b.(d) lsl 1
        end
        else if best_v.(d) < !value then begin
          value := best_v.(d);
          packed := (best_b.(d) lsl 1) lor 1
        end
      done;
    best_v.(d) <- !value;
    !packed
  in
  let root = probe 0 budget 0 0 in
  let max_err = t.cells.(root) in
  (* Retrace the optimal path to materialize the synopsis, re-deciding
     each state on it (memo hits only) with its incoming value set. *)
  let rec trace j b mask d acc =
    if j >= n then acc
    else begin
      let b = cap j b in
      let packed = decide j b mask d in
      let retained = packed land 1 = 1 and left_allot = packed lsr 1 in
      let acc = if retained then j :: acc else acc in
      let mask = if retained then mask lor (1 lsl depths.(j)) else mask in
      let b = b - Bool.to_int retained in
      let c = coeffs.(j) and d' = d + 1 in
      inc.(d') <- (if retained then inc.(d) +. c else inc.(d));
      if j = 0 then trace 1 b mask d' acc
      else begin
        let acc = trace (2 * j) left_allot mask d' acc in
        inc.(d') <- (if retained then inc.(d) -. c else inc.(d));
        trace ((2 * j) + 1) (b - left_allot) mask d' acc
      end
    end
  in
  inc.(0) <- 0.;
  let retained = trace 0 budget 0 0 [] in
  let synopsis =
    Synopsis.make ~n (List.map (fun j -> (j, coeffs.(j))) retained)
  in
  Log.debug (fun m ->
      m "solved n=%d budget=%d states=%d max_err=%g (flat %s)" n budget !states
        max_err
        (if dense then "dense" else "spill"));
  { max_err; synopsis; dp_states = !states }

let solve_tree ?(split = Binary_search) ?(cap_budget = true)
    ?(on_state = fun () -> ()) ?(impl = Flat)
    ?(dense_limit = default_dense_limit) ~tree ~budget metric =
  if budget < 0 then invalid_arg "Minmax_dp.solve: negative budget";
  match impl with
  | Reference -> solve_tree_reference ~split ~cap_budget ~on_state ~tree ~budget metric
  | Flat ->
      solve_tree_flat ~split ~cap_budget ~on_state ~dense_limit ~tree ~budget
        metric

type budget_search = { best : result; feasible : bool }

let budget_for ?pool ?on_state ?impl ~data ~target metric =
  if not (Float_util.is_pow2 (Array.length data)) then
    invalid_arg "Minmax_dp.budget_for: data length must be a power of two";
  let tree = Error_tree.of_data data in
  let nonzero =
    Array.fold_left
      (fun acc c -> if c <> 0. then acc + 1 else acc)
      0 (Error_tree.coeffs tree)
  in
  (* Every probe is cached, so no budget is ever solved twice — in
     particular the final answer reuses the last probe instead of
     re-solving at [hi]. *)
  let cache : (int, result) Hashtbl.t = Hashtbl.create 16 in
  let solve_fresh b = solve_tree ?on_state ?impl ~tree ~budget:b metric in
  let solve_b b =
    match Hashtbl.find_opt cache b with
    | Some r -> r
    | None ->
        let r = solve_fresh b in
        Hashtbl.replace cache b r;
        r
  in
  (* Optimal error is non-increasing in the budget: binary search for
     the smallest feasible budget. With a pool, each round probes up to
     [domains] evenly spaced budgets speculatively (the round's
     narrowing depends only on the probes' deterministic outcomes, so
     the search converges to the same minimal budget for every pool
     size; one probe per round degrades to the classic bisection). *)
  let speculate = match pool with Some p -> Pool.domains p | None -> 1 in
  let lo = ref 0 and hi = ref nonzero in
  if (solve_b 0).max_err <= target then hi := 0
  else begin
    while !lo + 1 < !hi do
      let span = !hi - !lo in
      let count = Stdlib.min speculate (span - 1) in
      let probes =
        List.init count (fun j -> !lo + (span * (j + 1) / (count + 1)))
        |> List.sort_uniq compare
      in
      let fresh =
        Array.of_list
          (List.filter (fun b -> not (Hashtbl.mem cache b)) probes)
      in
      (match pool with
      | Some p when Array.length fresh > 1 ->
          let rs =
            Pool.map_chunked p (Array.length fresh) (fun i ->
                solve_fresh fresh.(i))
          in
          Array.iteri (fun i r -> Hashtbl.replace cache fresh.(i) r) rs
      | _ -> Array.iter (fun b -> ignore (solve_b b)) fresh);
      List.iter
        (fun b ->
          if (solve_b b).max_err <= target then hi := Stdlib.min !hi b
          else lo := Stdlib.max !lo b)
        probes
    done
  end;
  let best = solve_b !hi in
  { best; feasible = best.max_err <= target }

let solve ?split ?cap_budget ?on_state ?impl ?dense_limit ~data ~budget metric =
  if not (Float_util.is_pow2 (Array.length data)) then
    invalid_arg "Minmax_dp.solve: data length must be a power of two";
  solve_tree ?split ?cap_budget ?on_state ?impl ?dense_limit
    ~tree:(Error_tree.of_data data) ~budget metric
