(* Benchmark harness: one Bechamel test (or indexed group) per
   experiment that has a timing dimension, followed by the full
   accuracy-experiment suite (E1-E11) whose tables EXPERIMENTS.md
   records.

   Mapping to experiments (see DESIGN.md):
     E1  haar1d transform throughput
     E3  multi-dimensional transform throughput
     E4/E5  construction cost of each thresholding algorithm
     E6  MinMaxErr scaling in N and in B (Theorem 3.1 shape)
     E7  epsilon-additive scheme cost vs. epsilon (Theorem 3.2)
     E8  (1+eps) absolute-error scheme cost (Theorem 3.4)
     E10 range-query answering throughput
     E11 streaming update cost *)

open Bechamel
open Toolkit

module Haar1d = Wavesyn_haar.Haar1d
module Haar_md = Wavesyn_haar.Haar_md
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng
module Signal = Wavesyn_datagen.Signal
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Minmax_dp = Wavesyn_core.Minmax_dp
module Approx_additive = Wavesyn_core.Approx_additive
module Approx_abs = Wavesyn_core.Approx_abs
module Greedy_l2 = Wavesyn_baselines.Greedy_l2
module Greedy_maxerr = Wavesyn_baselines.Greedy_maxerr
module Prob_synopsis = Wavesyn_baselines.Prob_synopsis
module Stream_synopsis = Wavesyn_stream.Stream_synopsis

let rng = Prng.create ~seed:31415

let signal n = Signal.random_walk ~rng ~n ~step:3.
let rel1 = Metrics.Rel { sanity = 1.0 }

(* E1: transform throughput. *)
let test_e1_decompose =
  Test.make_indexed ~name:"E1/haar1d-decompose" ~fmt:"%s:%d"
    ~args:[ 256; 1024; 4096 ]
    (fun n ->
      let data = signal n in
      Staged.stage (fun () -> ignore (Haar1d.decompose data)))

let test_e1_reconstruct =
  let w = Haar1d.decompose (signal 1024) in
  Test.make ~name:"E1/haar1d-reconstruct:1024"
    (Staged.stage (fun () -> ignore (Haar1d.reconstruct w)))

(* E3: multi-dimensional transform throughput. *)
let test_e3_md =
  Test.make_indexed ~name:"E3/haar-md-decompose-2d" ~fmt:"%s:%dx"
    ~args:[ 32; 64 ]
    (fun side ->
      let grid = Signal.grid_bumps ~rng ~side ~bumps:4 ~amplitude:40. in
      Staged.stage (fun () -> ignore (Haar_md.decompose grid)))

let test_e3_md3 =
  let cube =
    Ndarray.init ~dims:[| 16; 16; 16 |] (fun _ -> Prng.float rng 10.)
  in
  Test.make ~name:"E3/haar-md-decompose-3d:16^3"
    (Staged.stage (fun () -> ignore (Haar_md.decompose cube)))

(* E4/E5: construction cost per algorithm (N=128, B=8). *)
let construction_tests =
  let data = signal 128 in
  [
    Test.make ~name:"E4/build-minmax-dp:128"
      (Staged.stage (fun () ->
           ignore (Minmax_dp.solve ~data ~budget:8 rel1)));
    Test.make ~name:"E4/build-greedy-l2:128"
      (Staged.stage (fun () -> ignore (Greedy_l2.threshold ~data ~budget:8)));
    Test.make ~name:"E4/build-greedy-maxerr:128"
      (Staged.stage (fun () ->
           ignore (Greedy_maxerr.threshold ~data ~budget:8 rel1)));
    Test.make ~name:"E4/build-minrelvar-plan:128"
      (Staged.stage (fun () ->
           ignore
             (Prob_synopsis.build ~data ~budget:8 Prob_synopsis.Min_rel_var rel1)));
  ]

(* E6: MinMaxErr scaling shape. *)
let test_e6_n =
  Test.make_indexed ~name:"E6/minmax-dp-N" ~fmt:"%s:%d" ~args:[ 64; 128; 256 ]
    (fun n ->
      let data = signal n in
      Staged.stage (fun () -> ignore (Minmax_dp.solve ~data ~budget:8 rel1)))

let test_e6_b =
  Test.make_indexed ~name:"E6/minmax-dp-B" ~fmt:"%s:%d" ~args:[ 4; 16; 32 ]
    (fun b ->
      let data = signal 128 in
      Staged.stage (fun () -> ignore (Minmax_dp.solve ~data ~budget:b rel1)))

(* E7: additive scheme cost vs epsilon (1-D and 2-D). *)
let test_e7_eps =
  Test.make_indexed ~name:"E7/additive-1d-inv-eps" ~fmt:"%s:%d"
    ~args:[ 2; 10; 50 ]
    (fun inv_eps ->
      let data = signal 64 in
      let epsilon = 1. /. float_of_int inv_eps in
      Staged.stage (fun () ->
          ignore (Approx_additive.solve_1d ~data ~budget:6 ~epsilon rel1)))

let test_e7_2d =
  let grid = Signal.grid_int ~rng ~side:8 ~levels:32 in
  Test.make ~name:"E7/additive-2d:8x8"
    (Staged.stage (fun () ->
         ignore
           (Approx_additive.solve ~data:grid ~budget:8 ~epsilon:0.25
              Metrics.Abs)))

(* E8: (1+eps) absolute-error scheme. *)
let test_e8 =
  let grid = Signal.grid_int ~rng ~side:8 ~levels:32 in
  Test.make ~name:"E8/approx-abs-2d:8x8"
    (Staged.stage (fun () ->
         ignore (Approx_abs.solve ~data:grid ~budget:6 ~epsilon:0.25 ())))

(* E10: query answering throughput. *)
let query_tests =
  let n = 4096 in
  let data = signal n in
  let syn = Greedy_l2.threshold ~data ~budget:32 in
  (* A quantile needs a positive total: the same walk, shifted to a
     floor of 1. *)
  let quantile_syn =
    let floor = Array.fold_left Float.min Float.infinity data in
    Greedy_l2.threshold ~data:(Array.map (fun x -> x -. floor +. 1.) data) ~budget:32
  in
  [
    Test.make ~name:"E10/range-sum-from-synopsis:4096"
      (Staged.stage (fun () ->
           ignore (Range_query.range_sum syn ~lo:100 ~hi:3000)));
    Test.make ~name:"E10/range-sum-exact:4096"
      (Staged.stage (fun () ->
           ignore (Range_query.range_sum_exact data ~lo:100 ~hi:3000)));
    Test.make ~name:"E10/point-from-synopsis:4096"
      (Staged.stage (fun () ->
           ignore (Wavesyn_synopsis.Synopsis.reconstruct_point syn 1234)));
    Test.make ~name:"E10/quantile-from-synopsis:4096"
      (Staged.stage (fun () ->
           ignore (Wavesyn_aqp.Quantiles.search_synopsis quantile_syn ~q:0.37)));
  ]

(* E12: ablation variants (top-down vs bottom-up, split strategies). *)
let ablation_tests =
  let data = signal 128 in
  [
    Test.make ~name:"E12/minmax-topdown:128"
      (Staged.stage (fun () ->
           ignore
             (Wavesyn_oracle.Minmax_reference.solve ~data ~budget:12
                Metrics.Abs)));
    Test.make ~name:"E12/minmax-linear-split:128"
      (Staged.stage (fun () ->
           ignore
             (Minmax_dp.solve ~split:Minmax_dp.Linear_scan ~data ~budget:12
                Metrics.Abs)));
    Test.make ~name:"E12/minmax-bottomup:128"
      (Staged.stage (fun () ->
           ignore (Minmax_dp.solve ~data ~budget:12 Metrics.Abs)));
    Test.make ~name:"E12/multi-measure-3x64"
      (Staged.stage
         (let measures = Array.init 3 (fun _ -> signal 64) in
          fun () ->
            ignore
              (Wavesyn_core.Multi_measure.solve ~measures ~budget:9 Metrics.Abs)));
    Test.make ~name:"E3/haar-md-decompose-parallel:64x"
      (Staged.stage
         (let grid = Signal.grid_bumps ~rng ~side:64 ~bumps:4 ~amplitude:40. in
          fun () -> ignore (Haar_md.decompose_parallel grid)));
    Test.make ~name:"E3/haar-std-decompose-2d:32x"
      (Staged.stage
         (let grid = Signal.grid_bumps ~rng ~side:32 ~bumps:4 ~amplitude:40. in
          fun () -> ignore (Wavesyn_haar.Haar_std.decompose grid)));
  ]

(* E11b: one-pass streaming throughput and the Daub4 basis. *)
let stream_basis_tests =
  let data = signal 4096 in
  [
    Test.make ~name:"E11/one-pass-full-stream:4096"
      (Staged.stage (fun () ->
           let t = Wavesyn_stream.One_pass.create ~budget:32 () in
           Wavesyn_stream.One_pass.feed_array t data;
           ignore (Wavesyn_stream.One_pass.finish t)));
    Test.make ~name:"E19/daub4-decompose:4096"
      (Staged.stage (fun () -> ignore (Wavesyn_haar.Daub4.decompose data)));
  ]

(* E11: streaming update cost. *)
let test_e11 =
  let stream = Stream_synopsis.create ~n:4096 in
  let i = ref 0 in
  Test.make ~name:"E11/stream-update:4096"
    (Staged.stage (fun () ->
         i := (!i + 797) land 4095;
         Stream_synopsis.update stream ~i:!i ~delta:1.))

let all_tests =
  Test.make_grouped ~name:"wavesyn" ~fmt:"%s/%s"
    ([
       test_e1_decompose;
       test_e1_reconstruct;
       test_e3_md;
       test_e3_md3;
       test_e6_n;
       test_e6_b;
       test_e7_eps;
       test_e7_2d;
       test_e8;
       test_e11;
     ]
    @ construction_tests @ query_tests @ ablation_tests @ stream_basis_tests)

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  Analyze.all ols Instance.monotonic_clock raw

let pretty_time ns =
  if ns >= 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
  else Printf.sprintf "%.1f ns" ns

let () =
  print_endline "=== wavesyn micro-benchmarks (Bechamel, monotonic clock) ===";
  let results = benchmark () in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let width =
    List.fold_left (fun acc (name, _) -> Stdlib.max acc (String.length name)) 0 rows
  in
  List.iter
    (fun (name, ns) -> Printf.printf "%-*s  %s/run\n" width name (pretty_time ns))
    rows;
  print_newline ();
  print_endline "=== accuracy experiments (tables recorded in EXPERIMENTS.md) ===";
  Wavesyn_experiments.Experiments.run_all ()
