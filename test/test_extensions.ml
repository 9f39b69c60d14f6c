(* Tests for Md_exhaustive (the literal super-exponential exact DP of
   Section 3.2's opening argument) and Value_fitting (unrestricted
   coefficient values). *)

module Md_exhaustive = Wavesyn_core.Md_exhaustive
module Pseudo_poly = Wavesyn_core.Pseudo_poly
module Brute_force = Wavesyn_oracle.Brute_force
module Approx_additive = Wavesyn_core.Approx_additive
module Minmax_dp = Wavesyn_core.Minmax_dp
module Value_fitting = Wavesyn_core.Value_fitting
module Greedy_l2 = Wavesyn_baselines.Greedy_l2
module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Metrics = Wavesyn_synopsis.Metrics
module Synopsis = Wavesyn_synopsis.Synopsis
module Signal = Wavesyn_datagen.Signal
module Prng = Wavesyn_util.Prng
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let int_grid ~seed ~side ~levels =
  let rng = Prng.create ~seed in
  Signal.grid_int ~rng ~side ~levels

(* --- Md_exhaustive --- *)

let test_exhaustive_matches_brute_4x4 () =
  let grid = int_grid ~seed:1 ~side:4 ~levels:12 in
  let tree = Md_tree.of_data grid in
  List.iter
    (fun budget ->
      List.iter
        (fun metric ->
          let brute, _ = Brute_force.optimal_md ~tree ~budget metric in
          let r = Md_exhaustive.solve ~tree ~budget metric in
          check
            (Printf.sprintf "B=%d exact (%g vs %g)" budget
               r.Md_exhaustive.max_err brute)
            true
            (Float_util.approx_equal ~eps:1e-9 r.Md_exhaustive.max_err brute);
          let measured =
            Metrics.of_md_synopsis metric ~data:grid r.Md_exhaustive.synopsis
          in
          check "synopsis achieves value" true
            (Float_util.approx_equal ~eps:1e-9 r.Md_exhaustive.max_err measured))
        [ Metrics.Abs; Metrics.Rel { sanity = 2. } ])
    [ 0; 1; 2; 4 ]

let test_exhaustive_matches_pseudo_poly_8x8 () =
  let grid = int_grid ~seed:2 ~side:8 ~levels:10 in
  let tree = Md_tree.of_data grid in
  let budget = 5 in
  let pp = Pseudo_poly.solve_int_data ~data:grid ~budget Metrics.Abs in
  let ex = Md_exhaustive.solve ~tree ~budget Metrics.Abs in
  checkf "8x8 exact solvers agree" pp.Pseudo_poly.max_err ex.Md_exhaustive.max_err

let test_exhaustive_matches_minmax_1d () =
  let rng = Prng.create ~seed:3 in
  let data = Array.init 16 (fun _ -> Prng.float rng 20. -. 10.) in
  let tree = Md_tree.of_data (Ndarray.of_flat_array ~dims:[| 16 |] data) in
  List.iter
    (fun budget ->
      let exact = Minmax_dp.solve ~data ~budget Metrics.Abs in
      let ex = Md_exhaustive.solve ~tree ~budget Metrics.Abs in
      checkf
        (Printf.sprintf "1d B=%d" budget)
        exact.Minmax_dp.max_err ex.Md_exhaustive.max_err)
    [ 1; 3; 5 ]

let test_exhaustive_state_blowup () =
  (* The whole point of Section 3.2: the exhaustive state count dwarfs
     the approximate DP's on the same instance. *)
  let grid = int_grid ~seed:4 ~side:8 ~levels:20 in
  let tree = Md_tree.of_data grid in
  let budget = 6 in
  let ex = Md_exhaustive.solve ~tree ~budget Metrics.Abs in
  let ad = Approx_additive.solve_tree ~tree ~budget ~epsilon:0.25 Metrics.Abs in
  check
    (Printf.sprintf "exhaustive %d states >> additive %d states"
       ex.Md_exhaustive.dp_states ad.Approx_additive.dp_states)
    true
    (ex.Md_exhaustive.dp_states > 2 * ad.Approx_additive.dp_states)

(* --- Value_fitting --- *)

let test_refine_never_hurts () =
  let rng = Prng.create ~seed:5 in
  for trial = 1 to 10 do
    let data = Array.init 32 (fun _ -> Prng.float rng 40. -. 20.) in
    List.iter
      (fun metric ->
        let syn = Greedy_l2.threshold ~data ~budget:6 in
        let r = Value_fitting.refine ~data syn metric in
        check
          (Printf.sprintf "trial %d refinement monotone" trial)
          true
          (r.Value_fitting.final_err <= r.Value_fitting.initial_err +. 1e-9);
        let measured =
          Metrics.of_synopsis metric ~data r.Value_fitting.synopsis
        in
        check "reported = measured" true
          (Float_util.approx_equal ~eps:1e-6 measured r.Value_fitting.final_err))
      [ Metrics.Abs; Metrics.Rel { sanity = 1. } ]
  done

let test_refine_beats_restricted_optimal_sometimes () =
  (* Unrestricted values dominate restricted ones: refining the
     restricted optimum can only match or improve it, and across a few
     trials it must strictly improve at least once. *)
  let rng = Prng.create ~seed:6 in
  let strictly_better = ref 0 in
  for _ = 1 to 8 do
    let data = Array.init 16 (fun _ -> Prng.float rng 100.) in
    let opt = Minmax_dp.solve ~data ~budget:3 Metrics.Abs in
    let r = Value_fitting.refine ~data opt.Minmax_dp.synopsis Metrics.Abs in
    check "never worse than restricted optimum" true
      (r.Value_fitting.final_err <= opt.Minmax_dp.max_err +. 1e-9);
    if r.Value_fitting.final_err < opt.Minmax_dp.max_err -. 1e-6 then
      incr strictly_better
  done;
  check
    (Printf.sprintf "strict improvement in %d/8 trials" !strictly_better)
    true (!strictly_better >= 1)

let test_refine_single_average_is_midrange () =
  (* With only c0 retained and the absolute metric, the optimal
     unrestricted value is the midrange of the data. *)
  let data = [| 0.; 10.; 4.; 2. |] in
  let syn = Synopsis.make ~n:4 [ (0, 123.) ] in
  let r = Value_fitting.refine ~data syn Metrics.Abs in
  (match Synopsis.coeffs r.Value_fitting.synopsis with
  | [ (0, v) ] -> checkf "midrange value" 5. v
  | _ -> Alcotest.fail "expected a single c0");
  checkf "half the range" 5. r.Value_fitting.final_err

let test_refine_keeps_support () =
  let rng = Prng.create ~seed:7 in
  let data = Array.init 16 (fun _ -> Prng.float rng 50.) in
  let syn = Greedy_l2.threshold ~data ~budget:4 in
  let r = Value_fitting.refine ~data syn Metrics.Abs in
  let support s = List.map fst (Synopsis.coeffs s) in
  check "support subset of original" true
    (List.for_all
       (fun j -> List.mem j (support syn))
       (support r.Value_fitting.synopsis))

let test_refine_fixed_point () =
  let rng = Prng.create ~seed:8 in
  let data = Array.init 16 (fun _ -> Prng.float rng 50.) in
  let syn = Greedy_l2.threshold ~data ~budget:4 in
  let r1 = Value_fitting.refine ~data syn Metrics.Abs in
  let r2 = Value_fitting.refine ~data r1.Value_fitting.synopsis Metrics.Abs in
  check "second pass cannot improve materially" true
    (r2.Value_fitting.final_err >= r1.Value_fitting.final_err -. 1e-6)

let test_refine_validation () =
  Alcotest.check_raises "domain mismatch"
    (Invalid_argument "Value_fitting.refine: domain size mismatch")
    (fun () ->
      ignore
        (Value_fitting.refine ~data:(Array.make 8 0.)
           (Synopsis.make ~n:4 [])
           Metrics.Abs))

let prop_refine_monotone =
  QCheck.Test.make ~name:"refinement never increases the max error" ~count:40
    QCheck.(
      pair
        (array_of_size (Gen.oneofl [ 8; 16 ]) (float_range (-50.) 50.))
        (int_range 1 5))
    (fun (data, budget) ->
      let syn = Greedy_l2.threshold ~data ~budget in
      let r = Value_fitting.refine ~data syn Metrics.Abs in
      r.Value_fitting.final_err <= r.Value_fitting.initial_err +. 1e-9)

let () =
  Alcotest.run "extensions"
    [
      ( "md_exhaustive",
        [
          Alcotest.test_case "matches brute 4x4" `Quick test_exhaustive_matches_brute_4x4;
          Alcotest.test_case "matches pseudo-poly 8x8" `Quick test_exhaustive_matches_pseudo_poly_8x8;
          Alcotest.test_case "matches minmax 1d" `Quick test_exhaustive_matches_minmax_1d;
          Alcotest.test_case "state blowup" `Quick test_exhaustive_state_blowup;
        ] );
      ( "value_fitting",
        [
          Alcotest.test_case "never hurts" `Quick test_refine_never_hurts;
          Alcotest.test_case "beats restricted optimum" `Quick test_refine_beats_restricted_optimal_sometimes;
          Alcotest.test_case "midrange for single average" `Quick test_refine_single_average_is_midrange;
          Alcotest.test_case "keeps support" `Quick test_refine_keeps_support;
          Alcotest.test_case "fixed point" `Quick test_refine_fixed_point;
          Alcotest.test_case "validation" `Quick test_refine_validation;
          QCheck_alcotest.to_alcotest prop_refine_monotone;
        ] );
    ]
