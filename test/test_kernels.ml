(* Library-vs-oracle kernel equivalence: Minmax_dp's bottom-up kernel
   and Md_dp's flat memo layout (docs/KERNELS.md) must return
   bit-identical results to the original tuple-keyed Hashtbl kernels
   kept in the wavesyn_oracle library (test/oracle) — max_err bits and
   synopsis, plus dp_states for Md_dp — across random signals, budgets,
   metrics, split strategies and pool sizes 1 and 4. Minmax_dp's cell
   count and working set are checked against their closed forms, and
   it allocates nothing per cell. Plus the grain knob of the pool
   fan-out. *)

module Pool = Wavesyn_par.Pool
module Minmax_dp = Wavesyn_core.Minmax_dp
module Md_dp = Wavesyn_core.Md_dp
module Approx_abs = Wavesyn_core.Approx_abs
module Approx_additive = Wavesyn_core.Approx_additive
module Minmax_reference = Wavesyn_oracle.Minmax_reference
module Md_reference = Wavesyn_oracle.Md_reference
module Error_tree = Wavesyn_haar.Error_tree
module Md_tree = Wavesyn_haar.Md_tree
module Metrics = Wavesyn_synopsis.Metrics
module Synopsis = Wavesyn_synopsis.Synopsis
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng
module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* Bit-level float equality: NaN = NaN, -0. <> 0. — exactly the
   "same bits" contract of docs/KERNELS.md. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let signal rng n =
  Array.init n (fun _ ->
      let v = (Prng.float rng 200.) -. 100. in
      (* a sprinkle of exact zeros exercises the nonzero-coefficient
         caps and the forced-set edge cases *)
      if Prng.float rng 1. < 0.15 then 0. else v)

(* --- Minmax_dp vs the reference kernel --- *)

(* Few distinct levels: many equal and zero coefficients, so the DP
   meets exact ties between splits and between keeping and dropping a
   coefficient, where only the tie-break rules decide. *)
let coarse_signal rng n = Array.init n (fun _ -> float_of_int (Prng.int rng 4))

(* n up to 32 with small budgets, plus n in {64, 128} with budgets
   from a tight n/8 to n + 3 (above the root's coefficient count, so
   the root cap clamps it), plus tie-prone coarse signals. *)
let minmax_cases rng =
  let cases gen ns budgets =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun metric ->
            List.map (fun budget -> (gen rng n, budget, metric)) (budgets n))
          [ Metrics.Abs; Metrics.Rel { sanity = 5. } ])
      ns
  in
  let small = cases signal [ 8; 16; 32 ] (fun n -> [ 0; 1; 3; n / 2 ]) in
  let large = cases signal [ 64; 128 ] (fun n -> [ n / 8; n - 1; n + 3 ]) in
  let coarse = cases coarse_signal [ 8; 32 ] (fun n -> [ 1; n / 4; n / 2 ]) in
  small @ large @ coarse

let check_minmax_pair name (r_flat : Minmax_dp.result) (r_ref : Minmax_dp.result)
    =
  check (name ^ ": max_err bits") true (same_bits r_flat.max_err r_ref.max_err);
  check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis)

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  go 0

(* The bottom-up kernel's shape (docs/KERNELS.md). A node at depth d
   in 1..L (L = log2 n) has 2^d masks and a row width w(d), its
   subtree's coefficient count capped at the budget; the row of a mask
   with k retained ancestors stops at budget b0 - k, the root's. The
   arena holds two rows per depth. The decision rows of depth d are
   its 2^(d-1) nodes' full rows, and d* is the deepest depth below L
   such that depths 1..d* fit, with the arena, in 4 n L cells. *)
type minmax_shape = { l : int; b0 : int; w : int -> int }

let minmax_shape ~n ~budget ~cap_budget =
  let l = log2 n in
  {
    l;
    b0 = (if cap_budget then Int.min budget n else budget);
    w =
      (fun d ->
        (if cap_budget then Int.min budget ((1 lsl (l - d + 1)) - 1)
         else budget)
        + 1);
  }

let sum f lo hi =
  let s = ref 0 in
  for d = lo to hi do
    s := !s + f d
  done;
  !s

let arena s = sum (fun d -> 2 * (1 lsl d) * s.w d) 1 s.l
let decisions s k = sum (fun d -> (1 lsl ((2 * d) - 1)) * s.w d) 1 k

let d_star s =
  let rec deepest k =
    let fits = decisions s (k + 1) + arena s <= 4 * (1 lsl s.l) * s.l in
    if k + 1 < s.l && fits then deepest (k + 1) else k
  in
  deepest 0

(* The cell count, a function of the shape alone. Forward: the root
   cell plus every node's row. Retrace (none when b0 = 0): the internal
   nodes at depths 1..d* ([d_star] unless given) read their stored
   decisions and compute nothing. Below d*, every node recomputes its
   one cell; a node above leaves does so from its one-mask row, any
   other first rebuilds its subtree for its one ancestor prefix, 2^k
   nodes of 2^k masks each k levels below it. *)
let minmax_cells ?d_star:ds ~n ~budget ~cap_budget () =
  let s = minmax_shape ~n ~budget ~cap_budget in
  let ds = match ds with Some k -> k | None -> d_star s in
  let rec popcount f = if f = 0 then 0 else (f land 1) + popcount (f lsr 1) in
  let row d bits =
    let cells = ref 0 in
    for f = 0 to (1 lsl bits) - 1 do
      cells := !cells + Int.max 0 (Int.min (s.w d - 1) (s.b0 - popcount f) + 1)
    done;
    !cells
  in
  let forward = ref 1 and retrace = ref 0 in
  for d = 1 to s.l do
    let nodes = 1 lsl (d - 1) in
    forward := !forward + (nodes * row d d);
    let per_node =
      if d = s.l then row d 0
      else if d <= ds then 0
      else 1 + sum (fun k -> (1 lsl k) * row (d + k) k) 1 (s.l - d)
    in
    retrace := !retrace + (nodes * per_node)
  done;
  !forward + if s.b0 = 0 then 0 else !retrace

(* Every case under both split strategies and cap_budget on and off:
   the flat kernel returns the reference kernel's max_err bits and
   synopsis, computes exactly [minmax_cells] cells, and fires
   [on_state] once per cell (the reference once per memo state). The
   uncapped linear scan at n = 128 with a budget of n/2 or more is
   left out: its ~1.4M states take the reference kernel over ten
   seconds, and n = 64 covers that combination. *)
let test_minmax_flat_vs_reference () =
  let rng = Prng.create ~seed:41 in
  List.iter
    (fun (data, budget, metric) ->
      let n = Array.length data in
      List.iter
        (fun split ->
          List.iter
            (fun cap_budget ->
              if
                cap_budget || split = Minmax_dp.Binary_search || n < 128
                || budget < n / 2
              then begin
                let name =
                  Printf.sprintf "n=%d b=%d %s cap=%b" n budget
                    (match split with
                    | Minmax_dp.Binary_search -> "bisect"
                    | Minmax_dp.Linear_scan -> "scan")
                    cap_budget
                in
                let fired_ref = ref 0 and fired = ref 0 in
                let r_ref =
                  Minmax_reference.solve ~split ~cap_budget
                    ~on_state:(fun () -> incr fired_ref)
                    ~data ~budget metric
                in
                checki (name ^ ": reference on_state") r_ref.dp_states
                  !fired_ref;
                let r =
                  Minmax_dp.solve ~split ~cap_budget
                    ~on_state:(fun () -> incr fired)
                    ~data ~budget metric
                in
                check_minmax_pair name r r_ref;
                checki (name ^ ": cells")
                  (minmax_cells ~n ~budget ~cap_budget ())
                  r.dp_states;
                checki (name ^ ": on_state") r.dp_states !fired
              end)
            [ true; false ])
        [ Minmax_dp.Binary_search; Minmax_dp.Linear_scan ])
    (minmax_cases rng)

(* Non-finite input, as the ladder's NaN fault injects it: a NaN or an
   infinite value, and finite values whose reconstructions overflow.
   Leaf errors are then NaN or infinite, but no cell is NaN, so the
   kernel still makes the reference kernel's choices. *)
let non_finite_signals rng =
  let poke v data =
    let data = Array.copy data in
    data.(Prng.int rng (Array.length data)) <- v;
    data
  in
  [
    poke Float.nan (signal rng 1);
    poke Float.nan (signal rng 32);
    poke Float.nan (coarse_signal rng 64);
    poke Float.infinity (signal rng 32);
    poke Float.neg_infinity (signal rng 16);
    Array.init 32 (fun i -> if i mod 3 = 0 then 1e308 else -1e308);
  ]

(* NaN coefficients defeat structural equality, so synopses compare by
   index and coefficient bits. *)
let same_coeffs (a : Minmax_dp.result) (b : Minmax_dp.result) =
  let coeffs (r : Minmax_dp.result) = Synopsis.coeffs r.synopsis in
  List.equal
    (fun (i, c) (j, d) -> i = j && same_bits c d)
    (coeffs a) (coeffs b)

let test_minmax_non_finite () =
  let rng = Prng.create ~seed:79 in
  List.iter
    (fun data ->
      let n = Array.length data in
      List.iter
        (fun (split, cap_budget, metric, budget) ->
          let r = Minmax_dp.solve ~split ~cap_budget ~data ~budget metric in
          let r_ref =
            Minmax_reference.solve ~split ~cap_budget ~data ~budget metric
          in
          let name = Printf.sprintf "n=%d b=%d cap=%b" n budget cap_budget in
          check (name ^ ": max_err bits") true
            (same_bits r.max_err r_ref.max_err);
          check (name ^ ": synopsis") true (same_coeffs r r_ref))
        [
          (Minmax_dp.Binary_search, true, Metrics.Abs, n / 4);
          (Minmax_dp.Binary_search, true, Metrics.Rel { sanity = 5. }, n / 2);
          (Minmax_dp.Binary_search, false, Metrics.Abs, 3);
          (Minmax_dp.Linear_scan, true, Metrics.Abs, n / 4);
        ])
    (non_finite_signals rng)

(* Small integers in quads of four kinds, so the two depths above the
   leaves meet zero detail coefficients and exact ties: a constant quad
   (zero at depths L and L - 1), constant pairs (zero at L), pairs
   [a + d, a - d] and [a + e, a - e] with equal means (zero at L - 1
   only), and free values. *)
let quad_signal rng n =
  let data = Array.init n (fun _ -> float_of_int (Prng.int rng 8)) in
  for q = 0 to (n / 4) - 1 do
    let x k = data.((4 * q) + k) in
    let set k v = data.((4 * q) + k) <- v in
    match Prng.int rng 4 with
    | 0 ->
        set 1 (x 0);
        set 2 (x 0);
        set 3 (x 0)
    | 1 ->
        set 1 (x 0);
        set 3 (x 2)
    | 2 ->
        let a = x 0 and d = x 1 and e = x 2 in
        set 0 (a +. d);
        set 1 (a -. d);
        set 2 (a +. e);
        set 3 (a -. e)
    | _ -> ()
  done;
  data

(* The rows of the depth above the leaves' parents, which the kernel
   computes in closed form on the default split, against the reference
   kernel where their cases gather: every power-of-two n up to 256,
   the budgets that end inside those rows (0 to 5) and n/2, n and
   n + 3, both metrics, on random signals, on [quad_signal] and on the
   non-finite datasets. *)
let test_minmax_closed_rows () =
  let rng = Prng.create ~seed:89 in
  let datasets =
    List.concat_map
      (fun k -> [ signal rng (1 lsl k); quad_signal rng (1 lsl k) ])
      (List.init 9 Fun.id)
    @ non_finite_signals rng
  in
  List.iter
    (fun data ->
      let n = Array.length data in
      List.iter
        (fun metric ->
          List.iter
            (fun budget ->
              let name =
                Printf.sprintf "n=%d b=%d %s" n budget
                  (match metric with Metrics.Abs -> "abs" | _ -> "rel")
              in
              let fired = ref 0 in
              let r =
                Minmax_dp.solve
                  ~on_state:(fun () -> incr fired)
                  ~data ~budget metric
              in
              let r_ref = Minmax_reference.solve ~data ~budget metric in
              check (name ^ ": max_err bits") true
                (same_bits r.max_err r_ref.max_err);
              check (name ^ ": synopsis") true (same_coeffs r r_ref);
              checki (name ^ ": cells")
                (minmax_cells ~n ~budget ~cap_budget:true ())
                r.dp_states;
              checki (name ^ ": on_state") r.dp_states !fired)
            (List.sort_uniq compare [ 0; 1; 2; 3; 4; 5; n / 2; n; n + 3 ]))
        [ Metrics.Abs; Metrics.Rel { sanity = 5. } ])
    datasets

(* The benchmark's datasets: the Zipf vectors its servers cut (alpha
   1.2, scale 100, data seed 42) — live-write's n=256 at B=32, the read
   workloads' n=1024 at B=128, and read-sharded's two n=512 halves of
   it at B=128. *)
let test_minmax_benchmark_data () =
  let zipf n =
    Wavesyn_datagen.Signal.zipf ~rng:(Prng.create ~seed:42) ~n ~alpha:1.2
      ~scale:100.
  in
  let read = zipf 1024 in
  List.iter
    (fun (name, data, budget) ->
      check_minmax_pair name
        (Minmax_dp.solve ~data ~budget Metrics.Abs)
        (Minmax_reference.solve ~data ~budget Metrics.Abs))
    [
      ("live-write", zipf 256, 32);
      ("shard 0", Array.sub read 0 512, 128);
      ("shard 1", Array.sub read 512 512, 128);
      ("read", read, 128);
    ]

(* Theorem 3.1's working space: two rows per depth, each at most 2n
   cells with the budget cap, so at most 4 n log2 n cells — at the
   larger sizes a small fraction of the O(n^2 B) cells the solve
   computes. *)
let test_minmax_working_set () =
  let rng = Prng.create ~seed:71 in
  List.iter
    (fun (n, budget) ->
      let r = Minmax_dp.solve ~data:(signal rng n) ~budget Metrics.Abs in
      let bound = 4 * n * log2 n in
      check
        (Printf.sprintf "n=%d b=%d: %d working cells <= %d" n budget
           r.working_cells bound)
        true
        (r.working_cells <= bound);
      if n >= 256 then
        check
          (Printf.sprintf "n=%d b=%d: %d cells computed > 8x working" n budget
             r.dp_states)
          true
          (r.dp_states > 8 * r.working_cells))
    [ (2, 2); (16, 20); (256, 32); (1024, 128); (1024, 1024) ]

(* Both ends of the decision rule. With B >= n the arena alone fills
   4 n log2 n, so no depth is stored and every internal node rebuilds
   its subtree in the retrace. At a small budget every internal depth
   fits, so the retrace computes only the rows above the leaves. Either
   way the result is the reference kernel's. *)
let test_minmax_decision_ends () =
  let rng = Prng.create ~seed:83 in
  let solve_both ~split ~cap_budget data budget =
    let n = Array.length data in
    let name =
      Printf.sprintf "n=%d b=%d %s cap=%b" n budget
        (match split with
        | Minmax_dp.Binary_search -> "bisect"
        | Minmax_dp.Linear_scan -> "scan")
        cap_budget
    in
    let r = Minmax_dp.solve ~split ~cap_budget ~data ~budget Metrics.Abs in
    check_minmax_pair name r
      (Minmax_reference.solve ~split ~cap_budget ~data ~budget Metrics.Abs);
    (name, minmax_shape ~n ~budget ~cap_budget, r)
  in
  List.iter
    (fun (n, budget) ->
      let name, s, r =
        solve_both ~split:Minmax_dp.Binary_search ~cap_budget:true
          (signal rng n) budget
      in
      checki (name ^ ": arena fills 4 n log2 n") (4 * n * s.l) (arena s);
      checki (name ^ ": no depth stored") 0 (d_star s);
      checki (name ^ ": working cells") (arena s) r.working_cells;
      checki (name ^ ": full retrace")
        (minmax_cells ~d_star:0 ~n ~budget ~cap_budget:true ())
        r.dp_states)
    [ (8, 8); (32, 32); (32, 40); (64, 64) ];
  List.iter
    (fun (gen, n, budget) ->
      List.iter
        (fun (split, cap_budget) ->
          let name, s, r = solve_both ~split ~cap_budget (gen rng n) budget in
          checki (name ^ ": every internal depth stored") (s.l - 1)
            (d_star s);
          checki (name ^ ": working cells")
            (arena s + decisions s (s.l - 1))
            r.working_cells;
          check (name ^ ": within 4 n log2 n") true
            (r.working_cells <= 4 * n * s.l);
          checki (name ^ ": retrace computes only the bottom rows")
            (minmax_cells ~d_star:(s.l - 1) ~n ~budget ~cap_budget ())
            r.dp_states)
        [
          (Minmax_dp.Binary_search, true);
          (Minmax_dp.Linear_scan, true);
          (Minmax_dp.Binary_search, false);
        ])
    [ (signal, 8, 1); (signal, 32, 1); (coarse_signal, 32, 1) ]

(* A flat solve allocates its arena (straight into the major heap at
   these sizes) and O(n) bookkeeping, but nothing per DP cell: minor
   allocation stays under a bound linear in n that the cell count
   (tens of thousands here, millions at the read workloads' n = 1024,
   B = 128) would blow through at even one word per cell. *)
let test_minmax_flat_allocation () =
  let rng = Prng.create ~seed:73 in
  List.iter
    (fun (n, budget, metric) ->
      let data = signal rng n in
      let solve () = Minmax_dp.solve ~data ~budget metric in
      ignore (solve ());
      let w0 = Gc.minor_words () in
      let r = solve () in
      let words = Gc.minor_words () -. w0 in
      let bound = 64 * n in
      check
        (Printf.sprintf "n=%d b=%d: %.0f minor words (%d states) < %d" n budget
           words r.dp_states bound)
        true
        (words < float_of_int bound);
      check
        (Printf.sprintf "n=%d b=%d: more states than the bound" n budget)
        true (r.dp_states > bound))
    [
      (256, 32, Metrics.Abs);
      (64, 8, Metrics.Rel { sanity = 5. });
      (1024, 128, Metrics.Abs);
    ]

(* The dual search against its definition: the smallest budget whose
   reference-kernel optimum is at most the target, found by a linear
   scan (the full nonzero-coefficient budget, infeasible, when none
   is), and [best] is the solve at that budget. The targets are every
   distinct optimum over budgets 0..N, where only the comparison's tie
   decides, the midpoints between them, and two that no budget reaches
   (-1 and NaN). *)
let test_budget_for_vs_scan () =
  let rng = Prng.create ~seed:47 in
  let datasets =
    [ signal rng 1; signal rng 2 ]
    @ List.init 10 (fun _ -> signal rng 32)
    @ [ coarse_signal rng 8; coarse_signal rng 32 ]
    @ non_finite_signals rng
  in
  List.iter
    (fun data ->
      let n = Array.length data in
      let nonzero =
        Array.fold_left
          (fun acc c -> if c <> 0. then acc + 1 else acc)
          0
          (Error_tree.coeffs (Error_tree.of_data data))
      in
      List.iter
        (fun metric ->
          let optimum =
            Array.init (n + 1) (fun budget ->
                Minmax_reference.solve ~data ~budget metric)
          in
          let rec scan target b =
            if optimum.(b).max_err <= target then (b, true)
            else if b >= nonzero then (b, false)
            else scan target (b + 1)
          in
          let optima =
            List.sort_uniq compare
              (Array.to_list (Array.map (fun r -> r.Minmax_dp.max_err) optimum))
          in
          let rec midpoints = function
            | x :: (y :: _ as rest) -> ((x +. y) /. 2.) :: midpoints rest
            | _ -> []
          in
          List.iter
            (fun target ->
              let budget, feasible = scan target 0 in
              let best = optimum.(budget) in
              let s = Minmax_dp.budget_for ~data ~target metric in
              let name = Printf.sprintf "n=%d target=%g" n target in
              checki (name ^ ": budget") budget s.budget;
              check (name ^ ": feasible") true (s.feasible = feasible);
              check (name ^ ": max_err bits") true
                (same_bits s.best.max_err best.max_err);
              check (name ^ ": synopsis") true (same_coeffs s.best best);
              checki (name ^ ": dp_states")
                (minmax_cells ~n ~budget ~cap_budget:true ())
                s.best.dp_states)
            (optima @ midpoints optima @ [ -1.; Float.nan ]))
        [ Metrics.Abs; Metrics.Rel { sanity = 5. } ])
    datasets

(* --- Md_dp solvers vs the reference kernel --- *)

let test_approx_abs_flat_vs_reference () =
  let rng = Prng.create ~seed:53 in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          List.iter
            (fun n ->
              let data = signal rng n in
              let nd = Ndarray.of_flat_array ~dims:[| n |] data in
              let r_ref =
                Md_reference.approx_abs ~tree:(Md_tree.of_data nd)
                  ~budget:(n / 4) ~epsilon:0.3
              in
              let r_flat =
                Approx_abs.solve ~pool:p ~data:nd ~budget:(n / 4) ~epsilon:0.3 ()
              in
              let name = Printf.sprintf "approx_abs n=%d domains=%d" n domains in
              check (name ^ ": max_err bits") true
                (same_bits r_flat.max_err r_ref.max_err);
              check (name ^ ": tau bits") true (same_bits r_flat.tau r_ref.tau);
              check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis);
              checki (name ^ ": dp_states") r_ref.dp_states r_flat.dp_states;
              checki (name ^ ": sweeps") r_ref.sweeps r_flat.sweeps)
            [ 16; 32 ]))
    [ 1; 4 ]

let grid_8x8 () =
  let rng = Prng.create ~seed:59 in
  Ndarray.of_flat_array ~dims:[| 8; 8 |]
    (Array.init 64 (fun _ -> Prng.float rng 100.))

let test_approx_abs_2d_flat_vs_reference () =
  let nd = grid_8x8 () in
  let r_ref =
    Md_reference.approx_abs ~tree:(Md_tree.of_data nd) ~budget:10 ~epsilon:0.4
  in
  let r_flat = Approx_abs.solve ~data:nd ~budget:10 ~epsilon:0.4 () in
  check "2d: max_err bits" true (same_bits r_flat.max_err r_ref.max_err);
  check "2d: synopsis" true (r_flat.synopsis = r_ref.synopsis);
  checki "2d: dp_states" r_ref.dp_states r_flat.dp_states

let additive_metrics = [ Metrics.Abs; Metrics.Rel { sanity = 3. } ]

let test_approx_additive_flat_vs_reference () =
  let rng = Prng.create ~seed:61 in
  List.iter
    (fun metric ->
      List.iter
        (fun n ->
          let tree =
            Md_tree.of_data
              (Ndarray.of_flat_array ~dims:[| n |] (signal rng n))
          in
          let budget = n / 4 in
          let r_ref =
            Md_reference.approx_additive ~tree ~budget ~epsilon:0.2 metric
          in
          let r_flat =
            Approx_additive.solve_tree ~tree ~budget ~epsilon:0.2 metric
          in
          let name = Printf.sprintf "additive n=%d" n in
          check (name ^ ": bound bits") true (same_bits r_flat.bound r_ref.bound);
          check (name ^ ": measured bits") true
            (same_bits r_flat.measured r_ref.measured);
          check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis);
          checki (name ^ ": dp_states") r_ref.dp_states r_flat.dp_states)
        [ 16; 32 ])
    additive_metrics

(* Per config, not per merged result: for every τ candidate config
   Approx_abs exposes, and for Approx_additive's one config, Md_dp.run
   and the reference kernel return the same value bits, retained set
   and dp_states, and each fires on_state once per state. *)
let test_md_per_config () =
  let rng = Prng.create ~seed:67 in
  let same name ~tree ~budget cfg =
    let fired = ref 0 and fired_ref = ref 0 in
    let got =
      Md_dp.run ~on_state:(fun () -> incr fired) (Md_dp.skeleton ~tree)
        ~budget cfg
    in
    let want =
      Md_reference.run ~on_state:(fun () -> incr fired_ref) ~tree ~budget cfg
    in
    match (got, want) with
    | Some a, Some b ->
        check (name ^ ": value bits") true (same_bits a.value b.value);
        check (name ^ ": retained") true (a.retained = b.retained);
        checki (name ^ ": dp_states") b.dp_states a.dp_states;
        checki (name ^ ": on_state") a.dp_states !fired;
        checki (name ^ ": reference on_state") b.dp_states !fired_ref
    | None, None -> ()
    | _ -> Alcotest.fail (name ^ ": feasibility differs")
  in
  let abs_trees =
    List.map
      (fun n ->
        (Ndarray.of_flat_array ~dims:[| n |] (signal rng n), n / 4, 0.3))
      [ 16; 32 ]
    @ [ (grid_8x8 (), 10, 0.4) ]
  in
  List.iter
    (fun (nd, budget, epsilon) ->
      let tree = Md_tree.of_data nd in
      let candidates = Approx_abs.candidates ~tree ~budget ~epsilon in
      check "approx_abs: some candidates" true (Array.length candidates > 0);
      Array.iter
        (fun (c : Approx_abs.candidate) ->
          same
            (Printf.sprintf "approx_abs %d cells tau=%g" (Ndarray.size nd) c.tau)
            ~tree ~budget c.config)
        candidates)
    abs_trees;
  List.iter
    (fun metric ->
      List.iter
        (fun n ->
          let tree =
            Md_tree.of_data
              (Ndarray.of_flat_array ~dims:[| n |] (signal rng n))
          in
          match Approx_additive.config ~tree ~epsilon:0.2 metric with
          | Some cfg ->
              same (Printf.sprintf "additive n=%d" n) ~tree ~budget:(n / 4) cfg
          | None -> Alcotest.fail "additive: no config")
        [ 16; 32 ])
    additive_metrics

(* --- grain --- *)

let test_default_grain () =
  checki "zero items" 1 (Pool.default_grain ~items:0 ~domains:4);
  checki "few items" 1 (Pool.default_grain ~items:7 ~domains:4);
  checki "4 chunks per domain" 8 (Pool.default_grain ~items:128 ~domains:4);
  checki "single domain" 25 (Pool.default_grain ~items:100 ~domains:1)

let test_grain_identity () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          List.iter
            (fun grain ->
              List.iter
                (fun n ->
                  let got = Pool.map_chunked ~grain p n (fun i -> (i * 7) + 1) in
                  let want = Array.init n (fun i -> (i * 7) + 1) in
                  check
                    (Printf.sprintf "domains=%d grain=%d n=%d" domains grain n)
                    true (got = want))
                [ 0; 1; 5; 64; 129 ])
            [ 1; 3; 16; 1000 ]))
    [ 1; 4 ]

let test_grain_instruments () =
  let reg = Registry.create () in
  let p = Pool.create ~obs:reg ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  ignore (Pool.map_chunked ~grain:8 p 40 (fun i -> i));
  (* 40 items in chunks of 8 -> 5 chunks; par.tasks counts items. *)
  checki "par.tasks = items" 40
    (Metric.counter_value (Registry.counter reg "par.tasks"));
  checki "par.chunks = ceil(items/grain)" 5
    (Metric.counter_value (Registry.counter reg "par.chunks"));
  check "par.grain = grain" true
    (Metric.gauge_value (Registry.gauge reg "par.grain") = 8.)

let () =
  Alcotest.run "kernels"
    [
      ( "minmax flat",
        [
          Alcotest.test_case "flat = reference (bit-identical)" `Quick
            test_minmax_flat_vs_reference;
          Alcotest.test_case "flat = reference on non-finite data" `Quick
            test_minmax_non_finite;
          Alcotest.test_case "closed-form rows = reference" `Quick
            test_minmax_closed_rows;
          Alcotest.test_case "flat = reference on benchmark data" `Quick
            test_minmax_benchmark_data;
          Alcotest.test_case "working set at most 4 n log2 n cells" `Quick
            test_minmax_working_set;
          Alcotest.test_case "decisions stored at both ends of the rule"
            `Quick test_minmax_decision_ends;
          Alcotest.test_case "flat solve allocates O(n), not per state" `Quick
            test_minmax_flat_allocation;
          Alcotest.test_case "budget_for = oracle linear scan" `Quick
            test_budget_for_vs_scan;
        ] );
      ( "md flat",
        [
          Alcotest.test_case "approx-abs flat = reference, pooled" `Quick
            test_approx_abs_flat_vs_reference;
          Alcotest.test_case "approx-abs 2d flat = reference" `Quick
            test_approx_abs_2d_flat_vs_reference;
          Alcotest.test_case "approx-additive flat = reference" `Quick
            test_approx_additive_flat_vs_reference;
          Alcotest.test_case "Md_dp.run = reference per config" `Quick
            test_md_per_config;
        ] );
      ( "grain",
        [
          Alcotest.test_case "default_grain arithmetic" `Quick
            test_default_grain;
          Alcotest.test_case "grain never changes results" `Quick
            test_grain_identity;
          Alcotest.test_case "par.tasks/chunks/grain instruments" `Quick
            test_grain_instruments;
        ] );
    ]
