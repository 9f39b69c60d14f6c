(* Tests for the AQP engine, the OLAP cube layer and the streaming
   maintenance extension. *)

module Relation = Wavesyn_aqp.Relation
module Engine = Wavesyn_aqp.Engine
module Cube = Wavesyn_aqp.Cube
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Synopsis = Wavesyn_synopsis.Synopsis
module Prob_synopsis = Wavesyn_baselines.Prob_synopsis
module Signal = Wavesyn_datagen.Signal
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)

(* --- Relation --- *)

let test_relation_padding () =
  let r = Relation.create ~name:"t" [| 1.; 2.; 3. |] in
  checki "domain" 3 (Relation.domain r);
  checki "padded" 4 (Relation.padded_domain r);
  checkf "padding zeros" 0. (Relation.frequencies r).(3);
  checkf "total" 6. (Relation.total r)

let test_relation_of_tuples () =
  let r = Relation.of_tuples ~name:"t" ~domain:4 [ 0; 0; 1; 3; 3; 3 ] in
  check "histogram" true (Relation.frequencies r = [| 2.; 1.; 0.; 3. |]);
  Alcotest.check_raises "out of domain"
    (Invalid_argument "Relation.of_tuples: value out of domain")
    (fun () -> ignore (Relation.of_tuples ~name:"t" ~domain:4 [ 4 ]))

(* --- Engine --- *)

let make_relation () =
  let rng = Prng.create ~seed:55 in
  Relation.create ~name:"r"
    (Array.map (fun x -> x +. 2.) (Signal.gaussian_bumps ~rng ~n:64 ~bumps:3 ~amplitude:200.))

let test_engine_exact_answers_at_full_budget () =
  let r = make_relation () in
  let e = Engine.build r ~budget:64 Engine.L2_greedy in
  let a = Engine.range_sum e ~lo:5 ~hi:40 in
  checkf "exact at full budget" a.Engine.exact a.Engine.approx;
  let p = Engine.point e 13 in
  checkf "point exact" p.Engine.exact p.Engine.approx

let test_engine_strategies_all_run () =
  let r = make_relation () in
  let metric = Metrics.Rel { sanity = 20. } in
  List.iter
    (fun strategy ->
      let e = Engine.build r ~budget:8 strategy in
      (* Probabilistic synopses only bound the EXPECTED size; a single
         coin-flip draw can retain more than B coefficients. *)
      (match strategy with
      | Engine.Probabilistic _ -> ()
      | _ ->
          check
            (Engine.strategy_name strategy ^ " within budget")
            true
            (Engine.budget_used e <= 8));
      let a = Engine.range_sum e ~lo:0 ~hi:31 in
      check "answer finite" true (Float.is_finite a.Engine.approx);
      check "guarantee finite" true (Float.is_finite (Engine.guarantee e metric)))
    [
      Engine.L2_greedy;
      Engine.Minmax metric;
      Engine.Minmax Metrics.Abs;
      Engine.Greedy_maxerr metric;
      Engine.Probabilistic
        { strategy = Prob_synopsis.Min_rel_var; metric; seed = 1 };
      Engine.Probabilistic
        { strategy = Prob_synopsis.Min_rel_bias; metric; seed = 1 };
    ]

let test_engine_minmax_guarantee_is_best () =
  let r = make_relation () in
  let metric = Metrics.Rel { sanity = 20. } in
  let budget = 12 in
  let g strategy = Engine.guarantee (Engine.build r ~budget strategy) metric in
  let minmax = g (Engine.Minmax metric) in
  check "minmax <= l2" true (minmax <= g Engine.L2_greedy +. 1e-9);
  check "minmax <= greedy-me" true (minmax <= g (Engine.Greedy_maxerr metric) +. 1e-9)

let test_engine_workload_report () =
  let r = make_relation () in
  let e = Engine.build r ~budget:10 Engine.L2_greedy in
  let rng = Prng.create ~seed:56 in
  let ranges = Signal.ranges ~rng ~n:64 ~count:50 ~min_len:1 ~max_len:16 in
  let rep = Engine.run_range_workload e ranges in
  checki "queries" 50 rep.Engine.queries;
  check "mean <= max" true (rep.Engine.mean_rel_err <= rep.Engine.max_rel_err +. 1e-12);
  check "p95 <= max" true (rep.Engine.p95_rel_err <= rep.Engine.max_rel_err +. 1e-12)

let test_engine_selectivity_sums_to_one () =
  let r = make_relation () in
  let e = Engine.build r ~budget:64 Engine.L2_greedy in
  let n = Relation.padded_domain r in
  let s = Engine.selectivity e ~lo:0 ~hi:(n - 1) in
  checkf "full range selectivity" 1. s.Engine.approx

let test_engine_interval_contains_truth () =
  let r = make_relation () in
  let e = Engine.build r ~budget:10 (Engine.Minmax Metrics.Abs) in
  let data = Relation.frequencies r in
  let rng = Prng.create ~seed:61 in
  for _ = 1 to 20 do
    let lo = Prng.int rng 32 in
    let hi = lo + Prng.int rng (64 - lo) in
    let estimate, half = Engine.range_sum_interval e ~lo ~hi in
    let exact =
      Wavesyn_synopsis.Range_query.range_sum_exact data ~lo ~hi
    in
    check
      (Printf.sprintf "interval [%g +- %g] contains %g" estimate half exact)
      true
      (Float.abs (exact -. estimate) <= half +. 1e-9)
  done

module Workload = Wavesyn_aqp.Workload

let test_workload_generation () =
  let rng = Prng.create ~seed:70 in
  let qs = Workload.generate ~rng ~n:64 () in
  checki "100 queries" 100 (List.length qs);
  List.iter
    (fun q ->
      match q with
      | Workload.Point i -> check "point in domain" true (i >= 0 && i < 64)
      | Workload.Range_sum (lo, hi) | Workload.Selectivity (lo, hi) ->
          check "range valid" true (0 <= lo && lo <= hi && hi < 64)
      | Workload.Quantile q -> check "q valid" true (q > 0. && q < 1.))
    qs

let test_workload_run () =
  let r = make_relation () in
  let e = Engine.build r ~budget:12 (Engine.Minmax Metrics.Abs) in
  let rng = Prng.create ~seed:71 in
  let qs = Workload.generate ~rng ~n:(Relation.padded_domain r) () in
  let reports = Workload.run e qs in
  checki "four kinds" 4 (List.length reports);
  List.iter
    (fun rep ->
      checki (rep.Workload.kind ^ " count") 25 rep.Workload.count;
      check (rep.Workload.kind ^ " mean <= max") true
        (rep.Workload.mean_rel_err <= rep.Workload.max_rel_err +. 1e-12))
    reports

let test_workload_exact_engine_zero_error () =
  let r = make_relation () in
  let e = Engine.build r ~budget:(Relation.padded_domain r) Engine.L2_greedy in
  let rng = Prng.create ~seed:72 in
  let qs = Workload.generate ~rng ~n:(Relation.padded_domain r) () in
  List.iter
    (fun rep ->
      check
        (Printf.sprintf "%s exact (max %g)" rep.Workload.kind rep.Workload.max_rel_err)
        true
        (rep.Workload.max_rel_err <= 1e-9))
    (Workload.run e qs)

(* --- Cube --- *)

let test_cube_padding_and_queries () =
  let data = Ndarray.of_flat_array ~dims:[| 3; 3 |] (Array.init 9 float_of_int) in
  let cube = Cube.create ~name:"c" data in
  check "padded to 4x4" true (Ndarray.dims (Cube.data cube) = [| 4; 4 |]);
  let syn = Cube.build cube ~budget:16 Cube.L2_greedy_md in
  let a = Cube.range_sum cube syn ~ranges:[| (0, 2); (0, 2) |] in
  checkf "exact total" 36. a.Cube.exact;
  checkf "full budget approx" 36. a.Cube.approx

let test_cube_of_tuples () =
  let cube =
    Cube.of_tuples ~name:"t" ~dims:(2, 3) [ (0, 0); (0, 0); (1, 2); (0, 1) ]
  in
  let data = Cube.data cube in
  checkf "(0,0) count" 2. (Ndarray.get data [| 0; 0 |]);
  checkf "(1,2) count" 1. (Ndarray.get data [| 1; 2 |]);
  checkf "padding zero" 0. (Ndarray.get data [| 3; 3 |]);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Cube.of_tuples: coordinate out of range")
    (fun () -> ignore (Cube.of_tuples ~name:"t" ~dims:(2, 2) [ (2, 0) ]))

let test_cube_strategies () =
  let rng = Prng.create ~seed:57 in
  let grid = Ndarray.map Float.round (Signal.grid_bumps ~rng ~side:8 ~bumps:3 ~amplitude:30.) in
  let cube = Cube.create ~name:"sales" grid in
  List.iter
    (fun strategy ->
      let syn = Cube.build cube ~budget:10 strategy in
      check
        (Cube.md_strategy_name strategy ^ " within budget")
        true
        (Synopsis.Md.size syn <= 10);
      let g = Cube.guarantee cube syn Metrics.Abs in
      check "finite guarantee" true (Float.is_finite g))
    [
      Cube.L2_greedy_md;
      Cube.Additive { epsilon = 0.2; metric = Metrics.Abs };
      Cube.Abs_approx { epsilon = 0.25 };
    ]

let test_cube_additive_guarantee_not_worse_than_l2 () =
  let rng = Prng.create ~seed:58 in
  let grid = Signal.grid_int ~rng ~side:8 ~levels:30 in
  let cube = Cube.create ~name:"g" grid in
  let l2 = Cube.guarantee cube (Cube.build cube ~budget:12 Cube.L2_greedy_md) Metrics.Abs in
  let add =
    Cube.guarantee cube
      (Cube.build cube ~budget:12 (Cube.Additive { epsilon = 0.05; metric = Metrics.Abs }))
      Metrics.Abs
  in
  check
    (Printf.sprintf "additive(0.05) <= l2 (%g vs %g)" add l2)
    true (add <= l2 +. 1e-9)

(* --- Streaming --- *)

let test_stream_matches_batch_decomposition () =
  let rng = Prng.create ~seed:59 in
  let n = 64 in
  let stream = Stream_synopsis.create ~n in
  let reference = Array.make n 0. in
  for _ = 1 to 500 do
    let i = Prng.int rng n in
    let delta = Prng.float rng 4. -. 2. in
    reference.(i) <- reference.(i) +. delta;
    Stream_synopsis.update stream ~i ~delta
  done;
  let batch = Wavesyn_haar.Haar1d.decompose reference in
  for j = 0 to n - 1 do
    check
      (Printf.sprintf "coefficient %d matches batch" j)
      true
      (Float_util.approx_equal ~eps:1e-6 batch.(j) (Stream_synopsis.coefficient stream j))
  done;
  let current = Stream_synopsis.current_data stream in
  for i = 0 to n - 1 do
    check "data matches" true (Float_util.approx_equal ~eps:1e-6 reference.(i) current.(i))
  done

let test_stream_of_data () =
  let data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |] in
  let stream = Stream_synopsis.of_data data in
  checkf "c0" 2.75 (Stream_synopsis.coefficient stream 0);
  checki "nonzero" 5 (Stream_synopsis.nonzero_count stream)

let test_stream_cancellation_removes_coefficients () =
  let stream = Stream_synopsis.create ~n:8 in
  Stream_synopsis.update stream ~i:3 ~delta:4.;
  check "has coefficients" true (Stream_synopsis.nonzero_count stream > 0);
  Stream_synopsis.update stream ~i:3 ~delta:(-4.);
  checki "all cancelled" 0 (Stream_synopsis.nonzero_count stream)

let test_stream_cuts () =
  let rng = Prng.create ~seed:60 in
  let stream = Stream_synopsis.create ~n:32 in
  for _ = 1 to 300 do
    Stream_synopsis.update stream ~i:(Prng.int rng 32) ~delta:(Prng.float rng 3.)
  done;
  let data = Stream_synopsis.current_data stream in
  let metric = Metrics.Rel { sanity = 5. } in
  let l2 = Metrics.of_synopsis metric ~data (Stream_synopsis.cut_l2 stream ~budget:6) in
  let mm = Metrics.of_synopsis metric ~data (Stream_synopsis.cut_minmax stream ~budget:6 metric) in
  check "minmax cut <= l2 cut" true (mm <= l2 +. 1e-9);
  checki "updates counted" 300 (Stream_synopsis.updates_seen stream)

let test_stream_validation () =
  Alcotest.check_raises "bad n"
    (Invalid_argument "Stream_synopsis.create: n must be a power of two")
    (fun () -> ignore (Stream_synopsis.create ~n:6));
  let s = Stream_synopsis.create ~n:8 in
  Alcotest.check_raises "bad cell"
    (Invalid_argument "Stream_synopsis.update: cell out of range")
    (fun () -> Stream_synopsis.update s ~i:8 ~delta:1.)

(* [restore] refuses a repeated coefficient index whatever its values,
   a zero first entry included (zero entries are never stored, so only
   an explicit check sees them). *)
let test_stream_restore_duplicates () =
  let dup = Invalid_argument "Stream_synopsis.restore: duplicate coefficient index" in
  List.iter
    (fun coeffs ->
      Alcotest.check_raises "duplicate index" dup (fun () ->
          ignore (Stream_synopsis.restore ~n:8 ~updates:0 coeffs)))
    [
      [ (3, 0.); (3, 5.) ];
      [ (3, 5.); (3, 0.) ];
      [ (3, 0.); (3, 0.) ];
      [ (3, 5.); (1, 2.); (3, 5.) ];
    ];
  let s = Stream_synopsis.restore ~n:8 ~updates:4 [ (3, 0.); (1, 2.); (6, -0.5) ] in
  check "zero entries are dropped" true
    (Stream_synopsis.coeffs s = [ (1, 2.); (6, -0.5) ]);
  checki "updates restored" 4 (Stream_synopsis.updates_seen s)

(* Duplicate-index deltas accumulate: applying several deltas to one
   cell is the same as applying their sum, in coefficients and in
   reconstructed data — the property that makes an UPDATE storm's
   per-delta journal records equivalent to their net effect. *)
let test_stream_duplicate_index_accumulates () =
  let n = 16 in
  let a = Stream_synopsis.create ~n and b = Stream_synopsis.create ~n in
  List.iter
    (fun delta -> Stream_synopsis.update a ~i:5 ~delta)
    [ 0.5; 0.25; -1.0; 0.125; 0.5 ];
  Stream_synopsis.update b ~i:5 ~delta:(0.5 +. 0.25 -. 1.0 +. 0.125 +. 0.5);
  for j = 0 to n - 1 do
    checkf
      (Printf.sprintf "coefficient %d" j)
      (Stream_synopsis.coefficient b j)
      (Stream_synopsis.coefficient a j)
  done;
  let da = Stream_synopsis.current_data a
  and db = Stream_synopsis.current_data b in
  for i = 0 to n - 1 do
    checkf (Printf.sprintf "cell %d" i) db.(i) da.(i)
  done;
  checki "every delta counted individually" 5 (Stream_synopsis.updates_seen a)

(* The durable write path rejects what the raw stream would accept or
   crash on: out-of-domain cells and non-finite deltas come back as
   structured validation errors, with nothing journaled or applied. *)
let test_store_delta_validation () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wavesyn_aqp_delta_%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let module Supervisor = Wavesyn_robust.Supervisor in
  let module Validate = Wavesyn_robust.Validate in
  let scfg =
    Supervisor.config ~sync:false ~dir ~n:16 ~budget:4
      Wavesyn_synopsis.Metrics.Abs
  in
  let sup =
    match Supervisor.open_store scfg with
    | Ok s -> s
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
  let rejected what = function
    | Error (Validate.Bad_value { reason; _ }) -> reason
    | Error e ->
        Alcotest.fail (what ^ ": wrong error " ^ Validate.to_string e)
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
  in
  let r = rejected "negative cell" (Supervisor.ingest sup ~i:(-1) ~delta:1.) in
  check "negative cell names the domain" true
    (r = "cell out of domain [0, 16)");
  let r = rejected "cell past n" (Supervisor.ingest sup ~i:16 ~delta:1.) in
  check "cell past n names the domain" true (r = "cell out of domain [0, 16)");
  List.iter
    (fun delta ->
      let r = rejected "non-finite delta" (Supervisor.ingest sup ~i:3 ~delta) in
      check "non-finite delta named" true (r = "not finite (NaN/Inf)"))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  checki "nothing journaled by any rejection" 0 (Supervisor.seq sup);
  checki "nothing applied to the stream" 0
    (Stream_synopsis.updates_seen (Supervisor.stream sup));
  (* and the file-level ingestion path refuses non-finite tokens *)
  let storm_file = Filename.concat dir "storm.txt" in
  let oc = open_out storm_file in
  output_string oc "3 nan\n";
  close_out oc;
  match Validate.read_updates storm_file with
  | Error (Validate.Bad_value { token = "nan"; _ }) -> ()
  | Error e -> Alcotest.fail ("wrong error: " ^ Validate.to_string e)
  | Ok _ -> Alcotest.fail "nan token must be a structured error"

let () =
  Alcotest.run "aqp_stream"
    [
      ( "relation",
        [
          Alcotest.test_case "padding" `Quick test_relation_padding;
          Alcotest.test_case "of_tuples" `Quick test_relation_of_tuples;
        ] );
      ( "engine",
        [
          Alcotest.test_case "exact at full budget" `Quick test_engine_exact_answers_at_full_budget;
          Alcotest.test_case "all strategies run" `Quick test_engine_strategies_all_run;
          Alcotest.test_case "minmax guarantee best" `Quick test_engine_minmax_guarantee_is_best;
          Alcotest.test_case "workload report" `Quick test_engine_workload_report;
          Alcotest.test_case "selectivity sums to one" `Quick test_engine_selectivity_sums_to_one;
          Alcotest.test_case "interval contains truth" `Quick test_engine_interval_contains_truth;
          Alcotest.test_case "workload generation" `Quick test_workload_generation;
          Alcotest.test_case "workload run" `Quick test_workload_run;
          Alcotest.test_case "workload exact engine" `Quick test_workload_exact_engine_zero_error;
        ] );
      ( "cube",
        [
          Alcotest.test_case "padding and queries" `Quick test_cube_padding_and_queries;
          Alcotest.test_case "of_tuples" `Quick test_cube_of_tuples;
          Alcotest.test_case "strategies" `Quick test_cube_strategies;
          Alcotest.test_case "additive <= l2" `Quick test_cube_additive_guarantee_not_worse_than_l2;
        ] );
      ( "stream",
        [
          Alcotest.test_case "matches batch" `Quick test_stream_matches_batch_decomposition;
          Alcotest.test_case "of_data" `Quick test_stream_of_data;
          Alcotest.test_case "cancellation" `Quick test_stream_cancellation_removes_coefficients;
          Alcotest.test_case "cuts" `Quick test_stream_cuts;
          Alcotest.test_case "validation" `Quick test_stream_validation;
          Alcotest.test_case "restore rejects duplicate indices" `Quick
            test_stream_restore_duplicates;
          Alcotest.test_case "duplicate-index deltas accumulate" `Quick
            test_stream_duplicate_index_accumulates;
          Alcotest.test_case "store rejects bad deltas structurally" `Quick
            test_store_delta_validation;
        ] );
    ]
