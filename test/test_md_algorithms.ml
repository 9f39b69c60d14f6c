(* Validation of the Section 3.2 multi-dimensional algorithms:
   - Pseudo_poly (optimal integer DP) against brute force and against
     the exact 1-D MinMaxErr DP;
   - Approx_additive against its Theorem 3.2 guarantee;
   - Approx_abs against its Theorem 3.4 (1+eps) guarantee. *)

module Minmax_dp = Wavesyn_core.Minmax_dp
module Brute_force = Wavesyn_oracle.Brute_force
module Pseudo_poly = Wavesyn_core.Pseudo_poly
module Approx_additive = Wavesyn_core.Approx_additive
module Approx_abs = Wavesyn_core.Approx_abs
module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Prng = Wavesyn_util.Prng
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let int_signal rng n bound =
  Array.init n (fun _ -> float_of_int (Prng.int rng (2 * bound) - bound))

let int_grid rng side bound =
  Ndarray.init ~dims:[| side; side |] (fun _ ->
      float_of_int (Prng.int rng (2 * bound) - bound))

(* --- Pseudo_poly: optimal integer DP --- *)

let test_pseudo_poly_matches_minmax_1d () =
  let rng = Prng.create ~seed:41 in
  List.iter
    (fun n ->
      List.iter
        (fun budget ->
          List.iter
            (fun metric ->
              let data = int_signal rng n 10 in
              let exact = Minmax_dp.solve ~data ~budget metric in
              let pp, _ = Pseudo_poly.solve_1d ~data ~budget metric in
              check
                (Printf.sprintf "n=%d B=%d pseudo-poly = minmax (%g vs %g)" n
                   budget pp exact.Minmax_dp.max_err)
                true
                (Float_util.approx_equal ~eps:1e-9 pp exact.Minmax_dp.max_err))
            [ Metrics.Abs; Metrics.Rel { sanity = 1.0 } ])
        [ 0; 1; 3; 5 ])
    [ 4; 8; 16 ]

let test_pseudo_poly_matches_brute_2d () =
  let rng = Prng.create ~seed:42 in
  List.iter
    (fun budget ->
      List.iter
        (fun metric ->
          let data = int_grid rng 4 8 in
          let tree = Md_tree.of_data data in
          let brute, _ = Brute_force.optimal_md ~tree ~budget metric in
          let r = Pseudo_poly.solve_int_data ~data ~budget metric in
          check
            (Printf.sprintf "2d B=%d pseudo-poly = brute (%g vs %g)" budget
               r.Pseudo_poly.max_err brute)
            true
            (Float_util.approx_equal ~eps:1e-9 r.Pseudo_poly.max_err brute);
          let measured =
            Metrics.of_md_synopsis metric ~data r.Pseudo_poly.synopsis
          in
          check
            (Printf.sprintf "2d B=%d synopsis achieves value" budget)
            true
            (Float_util.approx_equal ~eps:1e-9 r.Pseudo_poly.max_err measured);
          check "budget respected" true
            (Synopsis.Md.size r.Pseudo_poly.synopsis <= budget))
        [ Metrics.Abs; Metrics.Rel { sanity = 2.0 } ])
    [ 0; 1; 2; 4 ]

let test_pseudo_poly_rejects_non_integral () =
  let data = Ndarray.of_flat_array ~dims:[| 2 |] [| 0.5; 0.25 |] in
  let tree = Md_tree.of_data data in
  Alcotest.check_raises "non-integral scaled coefficients"
    (Invalid_argument "Pseudo_poly: scaled coefficient is not integral")
    (fun () ->
      ignore (Pseudo_poly.solve_scaled ~tree ~budget:1 ~scale:1. Metrics.Abs))

let test_pseudo_poly_full_budget () =
  let rng = Prng.create ~seed:43 in
  let data = int_grid rng 4 10 in
  let r = Pseudo_poly.solve_int_data ~data ~budget:16 Metrics.Abs in
  checkf "full budget exact" 0. r.Pseudo_poly.max_err

(* --- Approx_additive: Theorem 3.2 --- *)

let test_additive_1d_guarantee () =
  let rng = Prng.create ~seed:44 in
  List.iter
    (fun (n, budget, epsilon) ->
      List.iter
        (fun metric ->
          let data = Array.init n (fun _ -> Prng.float rng 40. -. 20.) in
          let opt = (Minmax_dp.solve ~data ~budget metric).Minmax_dp.max_err in
          let tree =
            Md_tree.of_data (Ndarray.of_flat_array ~dims:[| n |] data)
          in
          let slack = Approx_additive.guarantee_bound ~tree ~epsilon metric in
          let measured, syn = Approx_additive.solve_1d ~data ~budget ~epsilon metric in
          check
            (Printf.sprintf "1d n=%d B=%d eps=%g within guarantee (%g vs %g + %g)"
               n budget epsilon measured opt slack)
            true
            (measured <= opt +. slack +. 1e-9);
          check "budget respected" true (Synopsis.size syn <= budget))
        [ Metrics.Abs; Metrics.Rel { sanity = 1.0 } ])
    [ (8, 2, 0.5); (8, 3, 0.2); (16, 4, 0.3); (16, 2, 0.1); (32, 5, 0.25) ]

let test_additive_1d_converges_to_optimal () =
  (* With a very small per-rounding epsilon the scheme should find the
     true optimum on small instances. *)
  let rng = Prng.create ~seed:45 in
  for trial = 1 to 5 do
    let data = Array.init 8 (fun _ -> Prng.float rng 20. -. 10.) in
    let budget = 2 in
    let opt = (Minmax_dp.solve ~data ~budget Metrics.Abs).Minmax_dp.max_err in
    let measured, _ =
      Approx_additive.solve_1d ~data ~budget ~epsilon:0.005 Metrics.Abs
    in
    check
      (Printf.sprintf "trial %d near-optimal (%g vs %g)" trial measured opt)
      true
      (measured <= opt *. 1.1 +. 1e-9)
  done

let test_additive_2d_guarantee () =
  let rng = Prng.create ~seed:46 in
  List.iter
    (fun (budget, epsilon) ->
      let data = int_grid rng 4 10 in
      let tree = Md_tree.of_data data in
      let opt, _ = Brute_force.optimal_md ~tree ~budget Metrics.Abs in
      let slack = Approx_additive.guarantee_bound ~tree ~epsilon Metrics.Abs in
      let r = Approx_additive.solve_tree ~tree ~budget ~epsilon Metrics.Abs in
      check
        (Printf.sprintf "2d B=%d eps=%g within guarantee (%g vs %g + %g)"
           budget epsilon r.Approx_additive.measured opt slack)
        true
        (r.Approx_additive.measured <= opt +. slack +. 1e-9);
      check "budget respected" true
        (Synopsis.Md.size r.Approx_additive.synopsis <= budget))
    [ (1, 0.3); (2, 0.2); (4, 0.1); (3, 0.05) ]

let test_additive_2d_rel_guarantee () =
  let rng = Prng.create ~seed:47 in
  let metric = Metrics.Rel { sanity = 2.0 } in
  let data = int_grid rng 4 10 in
  let tree = Md_tree.of_data data in
  let budget = 3 and epsilon = 0.1 in
  let opt, _ = Brute_force.optimal_md ~tree ~budget metric in
  let slack = Approx_additive.guarantee_bound ~tree ~epsilon metric in
  let r = Approx_additive.solve_tree ~tree ~budget ~epsilon metric in
  check "2d relative within guarantee" true
    (r.Approx_additive.measured <= opt +. slack +. 1e-9)

let test_additive_monotone_epsilon () =
  (* Smaller epsilon should never give a (meaningfully) worse result. *)
  let rng = Prng.create ~seed:48 in
  let data = Array.init 16 (fun _ -> Prng.float rng 100. -. 50.) in
  let err eps =
    fst (Approx_additive.solve_1d ~data ~budget:4 ~epsilon:eps Metrics.Abs)
  in
  let coarse = err 0.9 and fine = err 0.01 in
  check
    (Printf.sprintf "fine <= coarse + tolerance (%g vs %g)" fine coarse)
    true
    (fine <= coarse +. 1e-9)

let test_additive_zero_data () =
  let r =
    Approx_additive.solve
      ~data:(Ndarray.create ~dims:[| 4; 4 |] 0.)
      ~budget:2 ~epsilon:0.2 Metrics.Abs
  in
  checkf "zero data zero error" 0. r.Approx_additive.measured

let test_additive_epsilon_validation () =
  Alcotest.check_raises "epsilon 0 rejected"
    (Invalid_argument "Approx_additive: epsilon must be in (0, 1]")
    (fun () ->
      ignore
        (Approx_additive.solve
           ~data:(Ndarray.create ~dims:[| 4 |] 1.)
           ~budget:1 ~epsilon:0. Metrics.Abs))

(* Every scheme refuses a negative budget, also where no τ candidate
   would run the DP (all-zero data). *)
let test_negative_budget () =
  let raises name msg f =
    Alcotest.check_raises name (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  raises "approx-abs 1d" "Approx_abs: negative budget" (fun () ->
      Approx_abs.solve_1d ~data:[| 1.; 5.; 2.; 8. |] ~budget:(-1)
        ~epsilon:0.25 ());
  raises "approx-abs zero data" "Approx_abs: negative budget" (fun () ->
      Approx_abs.solve
        ~data:(Ndarray.create ~dims:[| 4; 4 |] 0.)
        ~budget:(-1) ~epsilon:0.25 ());
  raises "approx-additive" "Md_dp.run: negative budget" (fun () ->
      Approx_additive.solve
        ~data:(Ndarray.create ~dims:[| 4 |] 1.)
        ~budget:(-1) ~epsilon:0.25 Metrics.Abs)

let test_theorem_epsilon_scaling () =
  let tree = Md_tree.of_data (Ndarray.create ~dims:[| 4; 4 |] 1.) in
  let eps' = Approx_additive.theorem_epsilon ~tree 0.4 in
  checkf "eps' = eps / (2^D log N)" (0.4 /. (4. *. 4.)) eps'

(* --- Approx_abs: Theorem 3.4 --- *)

let test_approx_abs_guarantee_2d () =
  let rng = Prng.create ~seed:49 in
  List.iter
    (fun (budget, epsilon) ->
      let data = int_grid rng 4 12 in
      let opt =
        (Pseudo_poly.solve_int_data ~data ~budget Metrics.Abs).Pseudo_poly.max_err
      in
      let r = Approx_abs.solve ~data ~budget ~epsilon () in
      let bound = ((1. +. (4. *. epsilon)) *. opt) +. 1e-9 in
      check
        (Printf.sprintf "B=%d eps=%g within (1+4eps) (%g vs opt %g)" budget
           epsilon r.Approx_abs.max_err opt)
        true
        (r.Approx_abs.max_err <= bound);
      check "budget respected" true
        (Synopsis.Md.size r.Approx_abs.synopsis <= budget))
    [ (1, 0.5); (2, 0.25); (4, 0.25); (3, 0.1) ]

let test_approx_abs_guarantee_1d () =
  let rng = Prng.create ~seed:50 in
  List.iter
    (fun (n, budget, epsilon) ->
      let data = int_signal rng n 20 in
      let opt = (Minmax_dp.solve ~data ~budget Metrics.Abs).Minmax_dp.max_err in
      let measured, syn = Approx_abs.solve_1d ~data ~budget ~epsilon () in
      check
        (Printf.sprintf "1d n=%d B=%d eps=%g within (1+4eps) (%g vs %g)" n
           budget epsilon measured opt)
        true
        (measured <= ((1. +. (4. *. epsilon)) *. opt) +. 1e-9);
      check "budget" true (Synopsis.size syn <= budget))
    [ (8, 2, 0.5); (16, 4, 0.25); (16, 3, 0.1); (32, 5, 0.25) ]

let test_approx_abs_converges () =
  let rng = Prng.create ~seed:51 in
  let data = int_signal rng 16 15 in
  let budget = 4 in
  let opt = (Minmax_dp.solve ~data ~budget Metrics.Abs).Minmax_dp.max_err in
  let fine, _ = Approx_abs.solve_1d ~data ~budget ~epsilon:0.02 () in
  check
    (Printf.sprintf "eps=0.02 essentially optimal (%g vs %g)" fine opt)
    true
    (fine <= (opt *. 1.09) +. 1e-9)

let test_approx_abs_zero_data () =
  let r =
    Approx_abs.solve ~data:(Ndarray.create ~dims:[| 4; 4 |] 0.) ~budget:3
      ~epsilon:0.2 ()
  in
  checkf "zero data" 0. r.Approx_abs.max_err

let test_approx_abs_budget_zero () =
  let rng = Prng.create ~seed:52 in
  let data = int_grid rng 4 10 in
  let r = Approx_abs.solve ~data ~budget:0 ~epsilon:0.5 () in
  let flat = Ndarray.to_flat_array data in
  checkf "B=0 error is max |d|" (Float_util.max_abs flat) r.Approx_abs.max_err

let test_theorem_epsilon_abs () =
  checkf "eps/4" 0.1 (Approx_abs.theorem_epsilon 0.4)

(* Cross-validation: the three exact/near-exact solvers agree on the
   paper's running example. *)
let test_paper_example_cross_check () =
  let data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |] in
  List.iter
    (fun budget ->
      let exact = (Minmax_dp.solve ~data ~budget Metrics.Abs).Minmax_dp.max_err in
      let pp, _ = Pseudo_poly.solve_1d ~data ~budget Metrics.Abs in
      let aa, _ = Approx_abs.solve_1d ~data ~budget ~epsilon:0.05 () in
      checkf (Printf.sprintf "pseudo-poly B=%d" budget) exact pp;
      check
        (Printf.sprintf "approx-abs B=%d close (%g vs %g)" budget aa exact)
        true
        (aa <= (exact *. 1.2) +. 1e-9))
    [ 1; 2; 3; 4; 5 ]


(* --- three-dimensional instances and larger cross-validation --- *)

let int_cube rng side bound =
  Ndarray.init ~dims:[| side; side; side |] (fun _ ->
      float_of_int (Prng.int rng bound))

let test_pseudo_poly_3d_matches_brute () =
  let rng = Prng.create ~seed:60 in
  let data = int_cube rng 2 12 in
  let tree = Md_tree.of_data data in
  List.iter
    (fun budget ->
      let brute, _ = Brute_force.optimal_md ~tree ~budget Metrics.Abs in
      let r = Pseudo_poly.solve_int_data ~data ~budget Metrics.Abs in
      check
        (Printf.sprintf "3d B=%d (%g vs %g)" budget r.Pseudo_poly.max_err brute)
        true
        (Float_util.approx_equal ~eps:1e-9 r.Pseudo_poly.max_err brute))
    [ 0; 1; 2; 3 ]

let test_additive_3d_guarantee () =
  let rng = Prng.create ~seed:61 in
  let data = int_cube rng 4 16 in
  let tree = Md_tree.of_data data in
  let budget = 6 in
  let opt =
    (Pseudo_poly.solve_int_data ~data ~budget Metrics.Abs).Pseudo_poly.max_err
  in
  List.iter
    (fun epsilon ->
      let slack = Approx_additive.guarantee_bound ~tree ~epsilon Metrics.Abs in
      let r = Approx_additive.solve_tree ~tree ~budget ~epsilon Metrics.Abs in
      check
        (Printf.sprintf "3d eps=%g within guarantee (%g vs %g + %g)" epsilon
           r.Approx_additive.measured opt slack)
        true
        (r.Approx_additive.measured <= opt +. slack +. 1e-9))
    [ 0.3; 0.1 ]

let test_approx_abs_3d_guarantee () =
  let rng = Prng.create ~seed:62 in
  let data = int_cube rng 4 16 in
  let budget = 5 in
  let opt =
    (Pseudo_poly.solve_int_data ~data ~budget Metrics.Abs).Pseudo_poly.max_err
  in
  List.iter
    (fun epsilon ->
      let r = Approx_abs.solve ~data ~budget ~epsilon () in
      check
        (Printf.sprintf "3d eps=%g within 1+4eps (%g vs %g)" epsilon
           r.Approx_abs.max_err opt)
        true
        (r.Approx_abs.max_err <= ((1. +. (4. *. epsilon)) *. opt) +. 1e-9))
    [ 0.5; 0.2 ]

let test_pseudo_poly_larger_1d_cross_validation () =
  let rng = Prng.create ~seed:63 in
  List.iter
    (fun n ->
      let data = int_signal rng n 25 in
      List.iter
        (fun budget ->
          List.iter
            (fun metric ->
              let exact = Minmax_dp.solve ~data ~budget metric in
              let pp, _ = Pseudo_poly.solve_1d ~data ~budget metric in
              check
                (Printf.sprintf "n=%d B=%d (%g vs %g)" n budget pp
                   exact.Minmax_dp.max_err)
                true
                (Float_util.approx_equal ~eps:1e-9 pp exact.Minmax_dp.max_err))
            [ Metrics.Abs; Metrics.Rel { sanity = 2.0 } ])
        [ 2; 7; 13 ])
    [ 32; 64 ]

let test_additive_budget_monotone () =
  (* The DP's internal (rounded) objective is monotone in the budget.
     Note: the MEASURED error of the returned synopsis is not always -
     with coarse rounding a larger budget can select a synopsis whose
     true error is slightly worse, while staying within the Theorem 3.2
     guarantee; that is an inherent property of the approximation, so
     we assert monotonicity of the bound and check the guarantee for
     the measured values. *)
  let rng = Prng.create ~seed:64 in
  let data = int_grid rng 8 20 in
  let tree = Md_tree.of_data data in
  let epsilon = 0.1 in
  let results =
    List.map
      (fun budget ->
        ( budget,
          Approx_additive.solve_tree ~tree ~budget ~epsilon Metrics.Abs ))
      [ 0; 2; 4; 8; 16; 64 ]
  in
  let rec non_increasing = function
    | (_, a) :: ((_, b) :: _ as rest) ->
        check
          (Printf.sprintf "bound monotone (%g then %g)"
             a.Approx_additive.bound b.Approx_additive.bound)
          true
          (b.Approx_additive.bound <= a.Approx_additive.bound +. 1e-9);
        non_increasing rest
    | _ -> ()
  in
  non_increasing results;
  let slack = Approx_additive.guarantee_bound ~tree ~epsilon Metrics.Abs in
  List.iter
    (fun (budget, r) ->
      let opt =
        (Pseudo_poly.solve_int_data ~data ~budget Metrics.Abs)
          .Pseudo_poly.max_err
      in
      check
        (Printf.sprintf "B=%d measured %g within opt %g + slack %g" budget
           r.Approx_additive.measured opt slack)
        true
        (r.Approx_additive.measured <= opt +. slack +. 1e-9))
    results;
  let _, full = List.nth results 5 in
  check "full budget exact" true (full.Approx_additive.measured <= 1e-9)

(* Regression for the integer-key overflow: a pathological coefficient
   spread (a 1e18 spike over unit-scale values) makes the smallest τ
   candidates scale coefficients past the exactly-representable integer
   range, where [int_of_float] keys are unspecified. Those τ must be
   skipped — visible in [sweeps] — while the surviving sweep still
   meets the (1 + 4ε) guarantee (the skipped τ are far below the
   largest dropped coefficient, so Proposition 3.3 never needs them). *)
let test_approx_abs_overflow_guard () =
  let data = [| 1e18; 2.; 1.; 3.; 1.; 2.; 1.; 0.5 |] in
  let budget = 5 in
  let epsilon = 0.25 in
  let nd = Ndarray.of_flat_array ~dims:[| 8 |] data in
  let r = Approx_abs.solve ~data:nd ~budget ~epsilon () in
  (* 61 power-of-two candidates cover the clamped coefficient range;
     the three smallest (τ = 1/2, 1, 2) scale the 5e17 top coefficient
     past 2^62 and must not run. *)
  Alcotest.(check int) "overflowing tau candidates skipped" 58 r.Approx_abs.sweeps;
  check "error finite" true (Float.is_finite r.Approx_abs.max_err);
  let opt = (Minmax_dp.solve ~data ~budget Metrics.Abs).Minmax_dp.max_err in
  check
    (Printf.sprintf "guarantee holds under spread (%g vs opt %g)"
       r.Approx_abs.max_err opt)
    true
    (r.Approx_abs.max_err <= ((1. +. (4. *. epsilon)) *. opt) +. 1e-9);
  (* denormal territory: K_τ underflows to 0 for the smallest τ, making
     the scaled magnitude infinite — also guarded, never crashes. *)
  let tiny = [| 1e-290; 2e-308; 0.; 4e-308; 1e-300; 0.; 3e-308; 0. |] in
  let err, _ = Approx_abs.solve_1d ~data:tiny ~budget:3 ~epsilon () in
  check "denormal spread yields a finite error" true (Float.is_finite err)

let test_approx_abs_budget_monotone () =
  let rng = Prng.create ~seed:65 in
  let data = int_grid rng 8 20 in
  let errs =
    List.map
      (fun budget ->
        (Approx_abs.solve ~data ~budget ~epsilon:0.25 ()).Approx_abs.max_err)
      [ 0; 2; 4; 8; 16 ]
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) ->
        check "monotone" true (b <= a +. 1e-9);
        non_increasing rest
    | _ -> ()
  in
  non_increasing errs

let prop_pseudo_poly_matches_minmax =
  QCheck.Test.make ~name:"pseudo-poly = MinMaxErr on random integer data"
    ~count:40
    QCheck.(
      pair
        (array_of_size (Gen.oneofl [ 8; 16 ]) (int_range (-15) 15))
        (int_bound 5))
    (fun (ints, budget) ->
      let data = Array.map float_of_int ints in
      let exact = (Minmax_dp.solve ~data ~budget Metrics.Abs).Minmax_dp.max_err in
      let pp, _ = Pseudo_poly.solve_1d ~data ~budget Metrics.Abs in
      Float_util.approx_equal ~eps:1e-9 pp exact)

let () =
  Alcotest.run "md_algorithms"
    [
      ( "pseudo_poly",
        [
          Alcotest.test_case "matches MinMaxErr in 1d" `Quick test_pseudo_poly_matches_minmax_1d;
          Alcotest.test_case "matches brute force in 2d" `Quick test_pseudo_poly_matches_brute_2d;
          Alcotest.test_case "rejects non-integral" `Quick test_pseudo_poly_rejects_non_integral;
          Alcotest.test_case "full budget" `Quick test_pseudo_poly_full_budget;
          Alcotest.test_case "3d matches brute" `Quick test_pseudo_poly_3d_matches_brute;
          Alcotest.test_case "larger 1d cross-validation" `Quick test_pseudo_poly_larger_1d_cross_validation;
          QCheck_alcotest.to_alcotest prop_pseudo_poly_matches_minmax;
        ] );
      ( "approx_additive",
        [
          Alcotest.test_case "1d guarantee" `Quick test_additive_1d_guarantee;
          Alcotest.test_case "1d convergence" `Quick test_additive_1d_converges_to_optimal;
          Alcotest.test_case "2d guarantee (abs)" `Quick test_additive_2d_guarantee;
          Alcotest.test_case "2d guarantee (rel)" `Quick test_additive_2d_rel_guarantee;
          Alcotest.test_case "monotone in epsilon" `Quick test_additive_monotone_epsilon;
          Alcotest.test_case "zero data" `Quick test_additive_zero_data;
          Alcotest.test_case "epsilon validation" `Quick test_additive_epsilon_validation;
          Alcotest.test_case "negative budget" `Quick test_negative_budget;
          Alcotest.test_case "theorem epsilon" `Quick test_theorem_epsilon_scaling;
          Alcotest.test_case "3d guarantee" `Quick test_additive_3d_guarantee;
          Alcotest.test_case "budget monotone" `Quick test_additive_budget_monotone;
        ] );
      ( "approx_abs",
        [
          Alcotest.test_case "2d (1+4eps) guarantee" `Quick test_approx_abs_guarantee_2d;
          Alcotest.test_case "1d (1+4eps) guarantee" `Quick test_approx_abs_guarantee_1d;
          Alcotest.test_case "convergence" `Quick test_approx_abs_converges;
          Alcotest.test_case "zero data" `Quick test_approx_abs_zero_data;
          Alcotest.test_case "budget zero" `Quick test_approx_abs_budget_zero;
          Alcotest.test_case "theorem epsilon" `Quick test_theorem_epsilon_abs;
          Alcotest.test_case "paper example cross-check" `Quick test_paper_example_cross_check;
          Alcotest.test_case "3d guarantee" `Quick test_approx_abs_3d_guarantee;
          Alcotest.test_case "budget monotone" `Quick test_approx_abs_budget_monotone;
          Alcotest.test_case "overflow guard" `Quick test_approx_abs_overflow_guard;
        ] );
    ]
