(* Validation of the optimal 1-D MinMaxErr dynamic program (Theorem 3.1)
   against brute-force enumeration, plus structural properties. *)

module Minmax_dp = Wavesyn_core.Minmax_dp
module Brute_force = Wavesyn_oracle.Brute_force
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Prng = Wavesyn_util.Prng
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)

let paper_data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |]

let signals =
  let rng = Prng.create ~seed:2024 in
  let mk n f = Array.init n f in
  [
    ("paper", paper_data);
    ("constant", Array.make 8 5.);
    ("zeros", Array.make 8 0.);
    ("impulse", mk 8 (fun i -> if i = 3 then 100. else 0.));
    ("ramp", mk 16 (fun i -> float_of_int i));
    ("alternating", mk 16 (fun i -> if i mod 2 = 0 then 1. else -1.));
    ("random8", mk 8 (fun _ -> Prng.float rng 20. -. 10.));
    ("random16", mk 16 (fun _ -> Prng.float rng 20. -. 10.));
    ("skewed", mk 16 (fun i -> if i < 2 then 1000. else Prng.float rng 2.));
    ("small-values", mk 8 (fun _ -> Prng.float rng 0.1));
  ]

let metrics =
  [
    ("abs", Metrics.Abs);
    ("rel-s1", Metrics.Rel { sanity = 1.0 });
    ("rel-s01", Metrics.Rel { sanity = 0.1 });
  ]

(* The DP must (a) report the brute-force optimal value and (b) return a
   synopsis whose true measured error equals that value. *)
let optimality_case name data metric_name metric budget () =
  let r = Minmax_dp.solve ~data ~budget metric in
  let brute, _ = Brute_force.optimal_1d ~data ~budget metric in
  check
    (Printf.sprintf "%s/%s/B=%d dp=brute (%g vs %g)" name metric_name budget
       r.Minmax_dp.max_err brute)
    true
    (Float_util.approx_equal ~eps:1e-9 r.Minmax_dp.max_err brute);
  let measured = Metrics.of_synopsis metric ~data r.Minmax_dp.synopsis in
  check
    (Printf.sprintf "%s/%s/B=%d synopsis achieves claimed error" name
       metric_name budget)
    true
    (Float_util.approx_equal ~eps:1e-9 r.Minmax_dp.max_err measured);
  check
    (Printf.sprintf "%s/%s/B=%d respects budget" name metric_name budget)
    true
    (Synopsis.size r.Minmax_dp.synopsis <= budget)

let optimality_tests =
  List.concat_map
    (fun (name, data) ->
      List.concat_map
        (fun (mname, metric) ->
          List.map
            (fun budget ->
              Alcotest.test_case
                (Printf.sprintf "optimal %s %s B=%d" name mname budget)
                `Quick
                (optimality_case name data mname metric budget))
            [ 0; 1; 2; 3; 5 ])
        metrics)
    signals

let test_paper_example_exact_budget () =
  (* With all 6 non-zero coefficients retained the error is zero. *)
  let r = Minmax_dp.solve ~data:paper_data ~budget:6 Metrics.Abs in
  checkf "zero error at full budget" 0. r.Minmax_dp.max_err;
  (* B=0 keeps nothing: max abs error is the largest |d_i|. *)
  let r0 = Minmax_dp.solve ~data:paper_data ~budget:0 Metrics.Abs in
  checkf "B=0 error" 5. r0.Minmax_dp.max_err;
  checki "B=0 empty synopsis" 0 (Synopsis.size r0.Minmax_dp.synopsis)

let test_monotone_in_budget () =
  List.iter
    (fun (name, data) ->
      List.iter
        (fun (mname, metric) ->
          let errs =
            List.map
              (fun b -> (Minmax_dp.solve ~data ~budget:b metric).Minmax_dp.max_err)
              [ 0; 1; 2; 3; 4; 5; 6 ]
          in
          let rec non_increasing = function
            | a :: (b :: _ as rest) ->
                check
                  (Printf.sprintf "%s/%s monotone" name mname)
                  true
                  (b <= a +. 1e-12);
                non_increasing rest
            | _ -> ()
          in
          non_increasing errs)
        metrics)
    signals

let test_budget_beyond_coeffs_is_exact () =
  List.iter
    (fun (name, data) ->
      let r = Minmax_dp.solve ~data ~budget:(Array.length data) Metrics.Abs in
      checkf (Printf.sprintf "%s exact at full budget" name) 0. r.Minmax_dp.max_err)
    signals

let test_zero_data () =
  let r = Minmax_dp.solve ~data:(Array.make 8 0.) ~budget:2 Metrics.Abs in
  checkf "all-zero data is free" 0. r.Minmax_dp.max_err;
  checki "keeps nothing" 0 (Synopsis.size r.Minmax_dp.synopsis)

let test_constant_data_single_coeff () =
  (* Constant data needs exactly one coefficient (the average). *)
  let r = Minmax_dp.solve ~data:(Array.make 16 7.) ~budget:1 Metrics.Abs in
  checkf "constant captured by average" 0. r.Minmax_dp.max_err;
  check "retains c0" true (Synopsis.mem r.Minmax_dp.synopsis 0)

let test_singleton_domain () =
  let r = Minmax_dp.solve ~data:[| 42. |] ~budget:1 Metrics.Abs in
  checkf "N=1 B=1" 0. r.Minmax_dp.max_err;
  let r0 = Minmax_dp.solve ~data:[| 42. |] ~budget:0 Metrics.Abs in
  checkf "N=1 B=0" 42. r0.Minmax_dp.max_err

let test_n2 () =
  let data = [| 10.; -10. |] in
  (* Coefficients: avg 0 (zero -> never kept), detail 10. *)
  let r = Minmax_dp.solve ~data ~budget:1 Metrics.Abs in
  checkf "n=2 keeps detail" 0. r.Minmax_dp.max_err;
  check "detail retained" true (Synopsis.mem r.Minmax_dp.synopsis 1)

let test_rejects_bad_input () =
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Minmax_dp.solve: data length must be a power of two")
    (fun () -> ignore (Minmax_dp.solve ~data:(Array.make 6 0.) ~budget:1 Metrics.Abs));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Minmax_dp.solve: negative budget")
    (fun () -> ignore (Minmax_dp.solve ~data:(Array.make 4 0.) ~budget:(-1) Metrics.Abs))

let test_rel_sanity_bound_effect () =
  (* With a huge sanity bound, relative error degenerates to absolute
     error scaled by 1/s: the chosen synopses should coincide. *)
  let data = signals |> List.assoc "random16" in
  let s = 1e6 in
  let r_rel = Minmax_dp.solve ~data ~budget:4 (Metrics.Rel { sanity = s }) in
  let r_abs = Minmax_dp.solve ~data ~budget:4 Metrics.Abs in
  check "huge sanity behaves like absolute" true
    (Float_util.approx_equal ~eps:1e-9
       (r_rel.Minmax_dp.max_err *. s)
       r_abs.Minmax_dp.max_err)

let test_dp_beats_or_ties_greedy_everywhere () =
  (* The optimum can never exceed the error of retaining the B largest
     normalized coefficients. *)
  let rng = Prng.create ~seed:77 in
  for trial = 1 to 10 do
    let n = 32 in
    let data = Array.init n (fun _ -> Prng.float rng 100. -. 50.) in
    let w = Wavesyn_haar.Haar1d.decompose data in
    let order =
      Array.init n Fun.id |> Array.to_list
      |> List.filter (fun i -> w.(i) <> 0.)
      |> List.sort (fun i j ->
             compare
               (Float.abs (w.(j) *. Wavesyn_haar.Haar1d.normalization ~n j))
               (Float.abs (w.(i) *. Wavesyn_haar.Haar1d.normalization ~n i)))
    in
    List.iter
      (fun budget ->
        let greedy_idx = List.filteri (fun k _ -> k < budget) order in
        let greedy = Synopsis.of_wavelet ~wavelet:w greedy_idx in
        let greedy_err = Metrics.of_synopsis Metrics.Abs ~data greedy in
        let r = Minmax_dp.solve ~data ~budget Metrics.Abs in
        check
          (Printf.sprintf "trial %d B=%d dp <= greedy" trial budget)
          true
          (r.Minmax_dp.max_err <= greedy_err +. 1e-9))
      [ 1; 4; 8 ]
  done

let test_budget_for () =
  let rng = Prng.create ~seed:900 in
  let data = Array.init 32 (fun _ -> Prng.float rng 100. -. 50.) in
  List.iter
    (fun metric ->
      List.iter
        (fun target ->
          let { Minmax_dp.best = r; feasible; _ } =
            Minmax_dp.budget_for ~data ~target metric
          in
          check
            (Printf.sprintf "target %g feasibility verdict" target)
            (r.Minmax_dp.max_err <= target)
            feasible;
          check
            (Printf.sprintf "target %g reached (%g)" target r.Minmax_dp.max_err)
            true
            (r.Minmax_dp.max_err <= target +. 1e-9);
          (* minimality: one fewer coefficient must miss the target *)
          let b = Synopsis.size r.Minmax_dp.synopsis in
          if b > 0 then begin
            let worse = Minmax_dp.solve ~data ~budget:(b - 1) metric in
            check
              (Printf.sprintf "budget %d is minimal" b)
              true
              (worse.Minmax_dp.max_err > target -. 1e-9)
          end)
        [ 50.; 20.; 5.; 1.; 0. ])
    [ Metrics.Abs; Metrics.Rel { sanity = 5.0 } ]

let test_budget_for_zero_target_needs_all () =
  let data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |] in
  let r = (Minmax_dp.budget_for ~data ~target:0. Metrics.Abs).Minmax_dp.best in
  checkf "exact reconstruction" 0. r.Minmax_dp.max_err;
  checki "needs all five non-zero coefficients" 5
    (Synopsis.size r.Minmax_dp.synopsis)

let test_budget_for_huge_target_needs_nothing () =
  let data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |] in
  let r =
    (Minmax_dp.budget_for ~data ~target:100. Metrics.Abs).Minmax_dp.best
  in
  checki "empty synopsis suffices" 0 (Synopsis.size r.Minmax_dp.synopsis)

(* A target met at budget 0 is answered by the budget-0 solve alone,
   with no forward pass at the full budget. Minor words are exact and
   repeatable (major-heap counts lag behind); a forward pass's minor
   allocation alone about doubles the count, and the slack covers only
   the search's own result record. *)
let test_budget_for_loose_target_solves_once () =
  let rng = Prng.create ~seed:901 in
  let data = Array.init 256 (fun _ -> Prng.float rng 100. -. 50.) in
  let allocated f =
    let w0 = Gc.minor_words () in
    let r = f () in
    (Gc.minor_words () -. w0, r)
  in
  List.iter
    (fun metric ->
      let search () = Minmax_dp.budget_for ~data ~target:1e9 metric in
      let solo () = Minmax_dp.solve ~data ~budget:0 metric in
      ignore (search ());
      ignore (solo ());
      let search_words, s = allocated search in
      let solo_words, r = allocated solo in
      check "loose target feasible" true s.Minmax_dp.feasible;
      checki "answered at budget 0" 0 s.Minmax_dp.budget;
      checki "dp_states of one budget-0 solve" r.Minmax_dp.dp_states
        s.Minmax_dp.best.Minmax_dp.dp_states;
      check
        (Printf.sprintf "search allocates %g words, one solve %g"
           search_words solo_words)
        true
        (search_words <= solo_words +. 16.))
    [ Metrics.Abs; Metrics.Rel { sanity = 5.0 } ]

(* The answer moves one way with the target: a tighter target never
   needs fewer coefficients, and its solution's error never rises. Each
   answer is the direct solve at its budget, bit for bit. *)
let test_budget_for_monotone_in_target () =
  let rng = Prng.create ~seed:902 in
  let data = Array.init 64 (fun _ -> Prng.float rng 100. -. 50.) in
  List.iter
    (fun metric ->
      let top = (Minmax_dp.solve ~data ~budget:0 metric).Minmax_dp.max_err in
      let steps = 40 in
      let targets =
        List.init (steps + 1) (fun i ->
            top *. float_of_int (steps - i) /. float_of_int steps)
      in
      ignore
        (List.fold_left
           (fun (prev_budget, prev_err) target ->
             let s = Minmax_dp.budget_for ~data ~target metric in
             let b = s.Minmax_dp.budget and e = s.Minmax_dp.best.Minmax_dp.max_err in
             let name what = Printf.sprintf "target %g: %s" target what in
             check (name "budget non-decreasing") true (b >= prev_budget);
             check (name "error non-increasing") true (e <= prev_err);
             check (name "feasibility verdict") (e <= target)
               s.Minmax_dp.feasible;
             let direct = Minmax_dp.solve ~data ~budget:b metric in
             check (name "direct solve's error bits") true
               (Int64.equal
                  (Int64.bits_of_float direct.Minmax_dp.max_err)
                  (Int64.bits_of_float e));
             check (name "direct solve's synopsis") true
               (Synopsis.coeffs direct.Minmax_dp.synopsis
               = Synopsis.coeffs s.Minmax_dp.best.Minmax_dp.synopsis);
             (b, e))
           (0, Float.infinity) targets))
    [ Metrics.Abs; Metrics.Rel { sanity = 5.0 } ]

(* Regression: an unreachable target used to be silently absorbed — the
   caller got the full-budget solution with no way to tell it missed.
   A negative target is unreachable by definition (errors are >= 0). *)
let test_budget_for_infeasible_target () =
  let data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |] in
  let r = Minmax_dp.budget_for ~data ~target:(-1.) Metrics.Abs in
  check "negative target infeasible" false r.Minmax_dp.feasible;
  check "best still reported" true
    (r.Minmax_dp.best.Minmax_dp.max_err >= 0.);
  checki "best retains every nonzero coefficient" 5
    (Synopsis.size r.Minmax_dp.best.Minmax_dp.synopsis)

let prop_dp_matches_brute =
  QCheck.Test.make ~name:"dp equals brute force on random instances" ~count:60
    QCheck.(
      pair
        (array_of_size (Gen.oneofl [ 4; 8 ]) (float_range (-20.) 20.))
        (int_bound 4))
    (fun (data, budget) ->
      let metric = Metrics.Abs in
      let r = Minmax_dp.solve ~data ~budget metric in
      let brute, _ = Brute_force.optimal_1d ~data ~budget metric in
      Float_util.approx_equal ~eps:1e-9 r.Minmax_dp.max_err brute)

let prop_dp_matches_brute_rel =
  QCheck.Test.make ~name:"dp equals brute force (relative metric)" ~count:40
    QCheck.(
      pair
        (array_of_size (Gen.oneofl [ 4; 8 ]) (float_range (-20.) 20.))
        (int_bound 4))
    (fun (data, budget) ->
      let metric = Metrics.Rel { sanity = 0.5 } in
      let r = Minmax_dp.solve ~data ~budget metric in
      let brute, _ = Brute_force.optimal_1d ~data ~budget metric in
      Float_util.approx_equal ~eps:1e-9 r.Minmax_dp.max_err brute)

let prop_synopsis_achieves_value =
  QCheck.Test.make ~name:"returned synopsis achieves reported value" ~count:60
    QCheck.(
      pair
        (array_of_size (Gen.oneofl [ 4; 8; 16; 32 ]) (float_range (-20.) 20.))
        (int_bound 6))
    (fun (data, budget) ->
      let metric = Metrics.Rel { sanity = 1.0 } in
      let r = Minmax_dp.solve ~data ~budget metric in
      let measured = Metrics.of_synopsis metric ~data r.Minmax_dp.synopsis in
      Float_util.approx_equal ~eps:1e-9 r.Minmax_dp.max_err measured)

let () =
  Alcotest.run "minmax_dp"
    [
      ("optimality vs brute force", optimality_tests);
      ( "structure",
        [
          Alcotest.test_case "paper example budgets" `Quick test_paper_example_exact_budget;
          Alcotest.test_case "monotone in budget" `Quick test_monotone_in_budget;
          Alcotest.test_case "full budget exact" `Quick test_budget_beyond_coeffs_is_exact;
          Alcotest.test_case "zero data" `Quick test_zero_data;
          Alcotest.test_case "constant data" `Quick test_constant_data_single_coeff;
          Alcotest.test_case "singleton domain" `Quick test_singleton_domain;
          Alcotest.test_case "n=2" `Quick test_n2;
          Alcotest.test_case "bad input" `Quick test_rejects_bad_input;
          Alcotest.test_case "sanity bound limit" `Quick test_rel_sanity_bound_effect;
          Alcotest.test_case "dp beats greedy" `Quick test_dp_beats_or_ties_greedy_everywhere;
          Alcotest.test_case "budget_for dual" `Quick test_budget_for;
          Alcotest.test_case "budget_for zero target" `Quick test_budget_for_zero_target_needs_all;
          Alcotest.test_case "budget_for huge target" `Quick test_budget_for_huge_target_needs_nothing;
          Alcotest.test_case "budget_for infeasible target" `Quick test_budget_for_infeasible_target;
          Alcotest.test_case "budget_for loose target solves once" `Quick
            test_budget_for_loose_target_solves_once;
          Alcotest.test_case "budget_for monotone in target" `Quick
            test_budget_for_monotone_in_target;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_dp_matches_brute;
          QCheck_alcotest.to_alcotest prop_dp_matches_brute_rel;
          QCheck_alcotest.to_alcotest prop_synopsis_achieves_value;
        ] );
    ]
