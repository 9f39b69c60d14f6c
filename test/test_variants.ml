(* Cross-validation of the algorithm variants:
   - Minmax_dp ablation knobs (split strategy, budget capping) must not
     change results;
   - the bottom-up O(NB)-workspace kernel (the default) must compute
     the same optimal value as the top-down memo kernel;
   - the standard multi-dimensional decomposition. *)

module Minmax_dp = Wavesyn_core.Minmax_dp
module Haar1d = Wavesyn_haar.Haar1d
module Haar_std = Wavesyn_haar.Haar_std
module Haar_md = Wavesyn_haar.Haar_md
module Metrics = Wavesyn_synopsis.Metrics
module Synopsis = Wavesyn_synopsis.Synopsis
module Signal = Wavesyn_datagen.Signal
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

let random_data ~seed n =
  let rng = Prng.create ~seed in
  Array.init n (fun _ -> Prng.float rng 40. -. 20.)

let metrics = [ Metrics.Abs; Metrics.Rel { sanity = 1.0 } ]

(* --- ablation knobs --- *)

let test_split_strategies_agree () =
  for seed = 1 to 8 do
    let data = random_data ~seed 32 in
    List.iter
      (fun metric ->
        List.iter
          (fun budget ->
            let a = Minmax_dp.solve ~split:Minmax_dp.Binary_search ~data ~budget metric in
            let b = Minmax_dp.solve ~split:Minmax_dp.Linear_scan ~data ~budget metric in
            checkf
              (Printf.sprintf "seed %d B=%d same value" seed budget)
              a.Minmax_dp.max_err b.Minmax_dp.max_err)
          [ 0; 1; 4; 9 ])
      metrics
  done

let test_cap_budget_agrees () =
  for seed = 1 to 8 do
    let data = random_data ~seed:(seed + 100) 16 in
    List.iter
      (fun metric ->
        List.iter
          (fun budget ->
            let a = Minmax_dp.solve ~cap_budget:true ~data ~budget metric in
            let b = Minmax_dp.solve ~cap_budget:false ~data ~budget metric in
            checkf
              (Printf.sprintf "seed %d B=%d same value" seed budget)
              a.Minmax_dp.max_err b.Minmax_dp.max_err;
            check "cap never increases states" true
              (a.Minmax_dp.dp_states <= b.Minmax_dp.dp_states))
          [ 0; 2; 6; 16 ])
      metrics
  done

(* --- bottom-up kernel vs the top-down memo kernel --- *)

let top_down ~data ~budget metric =
  Wavesyn_oracle.Minmax_reference.solve ~data ~budget metric

let test_bottomup_matches_topdown () =
  for seed = 1 to 10 do
    let data = random_data ~seed:(seed + 200) 32 in
    List.iter
      (fun metric ->
        List.iter
          (fun budget ->
            let top = top_down ~data ~budget metric in
            let bottom = Minmax_dp.solve ~data ~budget metric in
            checkf
              (Printf.sprintf "seed %d B=%d" seed budget)
              top.Minmax_dp.max_err bottom.Minmax_dp.max_err)
          [ 0; 1; 3; 8 ])
      metrics
  done

let test_bottomup_paper_example () =
  let data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |] in
  List.iter
    (fun budget ->
      let top = top_down ~data ~budget Metrics.Abs in
      let bottom = Minmax_dp.solve ~data ~budget Metrics.Abs in
      checkf
        (Printf.sprintf "paper B=%d" budget)
        top.Minmax_dp.max_err bottom.Minmax_dp.max_err)
    [ 0; 1; 2; 3; 4; 5; 6 ]

let test_bottomup_workspace_shrinks () =
  (* Theorem 3.1's space story: the working set must be well below the
     total number of cells computed. *)
  let data = random_data ~seed:300 256 in
  let s = Minmax_dp.solve ~data ~budget:8 Metrics.Abs in
  check
    (Printf.sprintf "working %d << total %d" s.Minmax_dp.working_cells
       s.Minmax_dp.dp_states)
    true
    (s.Minmax_dp.working_cells * 4 < s.Minmax_dp.dp_states)

let test_bottomup_singleton () =
  let s = Minmax_dp.solve ~data:[| 42. |] ~budget:1 Metrics.Abs in
  checkf "N=1 B=1" 0. s.Minmax_dp.max_err;
  let s0 = Minmax_dp.solve ~data:[| 42. |] ~budget:0 Metrics.Abs in
  checkf "N=1 B=0" 42. s0.Minmax_dp.max_err

(* --- standard multi-dimensional decomposition --- *)

let test_std_roundtrip () =
  let rng = Prng.create ~seed:400 in
  List.iter
    (fun dims ->
      let a = Ndarray.init ~dims (fun _ -> Prng.float rng 20. -. 10.) in
      let back = Haar_std.reconstruct (Haar_std.decompose a) in
      check
        (Printf.sprintf "roundtrip %dd" (Array.length dims))
        true
        (Ndarray.equal ~eps:1e-8 a back))
    [ [| 8 |]; [| 8; 8 |]; [| 4; 4; 4 |] ]

let test_std_d1_matches_haar1d () =
  let data = random_data ~seed:401 16 in
  let w1 = Haar1d.decompose data in
  let ws =
    Haar_std.decompose (Ndarray.of_flat_array ~dims:[| 16 |] (Array.copy data))
  in
  Array.iteri
    (fun i c ->
      check (Printf.sprintf "coeff %d" i) true
        (Float_util.approx_equal ~eps:1e-9 c (Ndarray.get_flat ws i)))
    w1

let test_std_point () =
  let rng = Prng.create ~seed:402 in
  let a = Ndarray.init ~dims:[| 8; 8 |] (fun _ -> Prng.float rng 10.) in
  let w = Haar_std.decompose a in
  Ndarray.iteri
    (fun idx v -> checkf "std point" v (Haar_std.point ~wavelet:w idx))
    a

let test_std_average_cell () =
  let a = Ndarray.of_flat_array ~dims:[| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let w = Haar_std.decompose a in
  checkf "origin is overall average" 2.5 (Ndarray.get w [| 0; 0 |])

let test_std_differs_from_nonstandard () =
  (* The two bases agree on the overall average but generally differ on
     detail coefficients. *)
  let rng = Prng.create ~seed:403 in
  let a = Ndarray.init ~dims:[| 4; 4 |] (fun _ -> Prng.float rng 10.) in
  let ws = Haar_std.decompose a and wn = Haar_md.decompose a in
  checkf "same average" (Ndarray.get_flat ws 0) (Ndarray.get_flat wn 0);
  check "bases differ somewhere" true (not (Ndarray.equal ~eps:1e-12 ws wn))

let test_std_threshold_l2 () =
  let rng = Prng.create ~seed:404 in
  let a = Signal.grid_bumps ~rng ~side:8 ~bumps:3 ~amplitude:40. in
  let errs =
    List.map
      (fun budget ->
        let coeffs = Haar_std.threshold_l2 ~data:a ~budget in
        check (Printf.sprintf "B=%d size" budget) true
          (List.length coeffs <= budget);
        let approx = Haar_std.reconstruct_from ~dims:(Ndarray.dims a) coeffs in
        Metrics.max_error_md Metrics.Abs ~data:a ~approx)
      [ 1; 4; 16; 64 ]
  in
  let rec non_increasing = function
    | x :: (y :: _ as rest) ->
        check "error shrinks with budget" true (y <= x +. 1e-9);
        non_increasing rest
    | _ -> ()
  in
  non_increasing errs;
  checkf "full budget exact" 0. (List.nth errs 3)

let prop_std_roundtrip =
  QCheck.Test.make ~name:"standard decomposition roundtrip (2d)" ~count:40
    QCheck.(array_of_size (Gen.return 16) (float_range (-100.) 100.))
    (fun flat ->
      let a = Ndarray.of_flat_array ~dims:[| 4; 4 |] flat in
      Ndarray.equal ~eps:1e-8 a (Haar_std.reconstruct (Haar_std.decompose a)))

let prop_bottomup_equals_topdown =
  QCheck.Test.make ~name:"bottom-up value = top-down value" ~count:50
    QCheck.(
      pair
        (array_of_size (Gen.oneofl [ 4; 8; 16 ]) (float_range (-20.) 20.))
        (int_bound 5))
    (fun (data, budget) ->
      let top = (top_down ~data ~budget Metrics.Abs).Minmax_dp.max_err in
      let bottom = (Minmax_dp.solve ~data ~budget Metrics.Abs).Minmax_dp.max_err in
      Float_util.approx_equal ~eps:1e-9 top bottom)

let test_soak_large_1d () =
  (* Scale check: N = 1024. The two independent evaluation orders must
     agree on the optimum, and the synopsis must achieve it. *)
  let rng = Prng.create ~seed:500 in
  let data = Signal.random_walk ~rng ~n:1024 ~step:2. in
  let budget = 16 in
  let top = top_down ~data ~budget Metrics.Abs in
  let bottom = Minmax_dp.solve ~data ~budget Metrics.Abs in
  checkf "1024 top-down = bottom-up" top.Minmax_dp.max_err
    bottom.Minmax_dp.max_err;
  let measured =
    Wavesyn_synopsis.Metrics.of_synopsis Metrics.Abs ~data
      bottom.Minmax_dp.synopsis
  in
  checkf "1024 synopsis achieves optimum" bottom.Minmax_dp.max_err measured

let test_soak_additive_32x32 () =
  (* 32x32 2-D run of the additive scheme: bounded by the L2-greedy
     upper bound plus its guarantee, budget respected. *)
  let rng = Prng.create ~seed:501 in
  let grid = Signal.grid_bumps ~rng ~side:32 ~bumps:6 ~amplitude:60. in
  let tree = Wavesyn_haar.Md_tree.of_data grid in
  let budget = 20 in
  let epsilon = 0.2 in
  let r =
    Wavesyn_core.Approx_additive.solve_tree ~tree ~budget ~epsilon Metrics.Abs
  in
  let l2 =
    Wavesyn_synopsis.Metrics.of_md_synopsis Metrics.Abs ~data:grid
      (Wavesyn_baselines.Greedy_l2.threshold_md ~data:grid ~budget)
  in
  let slack =
    Wavesyn_core.Approx_additive.guarantee_bound ~tree ~epsilon Metrics.Abs
  in
  check "budget" true
    (Wavesyn_synopsis.Synopsis.Md.size r.Wavesyn_core.Approx_additive.synopsis
    <= budget);
  check
    (Printf.sprintf "measured %g within l2 %g + slack %g"
       r.Wavesyn_core.Approx_additive.measured l2 slack)
    true
    (r.Wavesyn_core.Approx_additive.measured <= l2 +. slack +. 1e-9)

let () =
  Alcotest.run "variants"
    [
      ( "ablation knobs",
        [
          Alcotest.test_case "split strategies agree" `Quick test_split_strategies_agree;
          Alcotest.test_case "budget cap agrees" `Quick test_cap_budget_agrees;
        ] );
      ( "bottom-up",
        [
          Alcotest.test_case "matches top-down" `Quick test_bottomup_matches_topdown;
          Alcotest.test_case "paper example" `Quick test_bottomup_paper_example;
          Alcotest.test_case "workspace shrinks" `Quick test_bottomup_workspace_shrinks;
          Alcotest.test_case "singleton" `Quick test_bottomup_singleton;
          QCheck_alcotest.to_alcotest prop_bottomup_equals_topdown;
          Alcotest.test_case "soak: N=1024" `Slow test_soak_large_1d;
          Alcotest.test_case "soak: 32x32 additive" `Slow test_soak_additive_32x32;
        ] );
      ( "standard decomposition",
        [
          Alcotest.test_case "roundtrip" `Quick test_std_roundtrip;
          Alcotest.test_case "D=1 matches haar1d" `Quick test_std_d1_matches_haar1d;
          Alcotest.test_case "point" `Quick test_std_point;
          Alcotest.test_case "average" `Quick test_std_average_cell;
          Alcotest.test_case "differs from nonstandard" `Quick test_std_differs_from_nonstandard;
          Alcotest.test_case "l2 threshold" `Quick test_std_threshold_l2;
          QCheck_alcotest.to_alcotest prop_std_roundtrip;
        ] );
    ]
