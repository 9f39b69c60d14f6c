let log_src =
  Logs.Src.create "wavesyn.oracle.minmax" ~doc:"Reference MinMaxErr DP"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Error_tree = Wavesyn_haar.Error_tree
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
open Wavesyn_core.Minmax_dp

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
  (* Retrace the memoized choices to materialize the synopsis. A split
     whose candidates are all [+inf] (non-finite input) chooses [b' =
     0], which its bisection may not have probed: such a state is
     solved on the way down. *)
  let rec trace j b mask incoming acc =
    if j >= n then acc
    else begin
      let b = cap j b in
      let key = (j, b, mask) in
      let e =
        try Hashtbl.find memo key
        with Not_found ->
          ignore (solve j b mask incoming);
          Hashtbl.find memo key
      in
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
  let states = Hashtbl.length memo in
  { max_err; synopsis; dp_states = states; working_cells = states }

let solve ?(split = Binary_search) ?(cap_budget = true) ?(on_state = ignore)
    ~data ~budget metric =
  solve_tree_reference ~split ~cap_budget ~on_state
    ~tree:(Error_tree.of_data data) ~budget metric
