(* Smoke benchmark: one tiny Bechamel case per timed group, finishing
   in seconds rather than minutes, with machine-readable JSON output:
   every row records ns_per_run and words_per_run (minor-heap words
   allocated per run).

   Purpose (see docs/OBSERVABILITY.md): seed a perf trajectory across
   PRs and prove the observability layer's instrumentation-off path
   leaves the DP hot loops untouched — the E6 cases here are the same
   code path bench/main.ml times at full size.

   Usage: dune exec bench/smoke.exe -- [OUT.json]
   (default output path: BENCH_obs.json in the current directory).
   OUT is the one recording: every row, under a header that notes the
   host's core count. *)

open Bechamel
open Toolkit

module Prng = Wavesyn_util.Prng
module Signal = Wavesyn_datagen.Signal
module Metrics = Wavesyn_synopsis.Metrics
module Synopsis = Wavesyn_synopsis.Synopsis
module Range_query = Wavesyn_synopsis.Range_query
module Quantiles = Wavesyn_aqp.Quantiles
module Minmax_dp = Wavesyn_core.Minmax_dp
module Approx_additive = Wavesyn_core.Approx_additive
module Greedy_l2 = Wavesyn_baselines.Greedy_l2
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Ladder = Wavesyn_robust.Ladder
module Incremental = Wavesyn_robust.Incremental
module Registry = Wavesyn_obs.Registry
module Approx_abs = Wavesyn_core.Approx_abs
module Minmax_reference = Wavesyn_oracle.Minmax_reference
module Md_reference = Wavesyn_oracle.Md_reference
module Multi_measure = Wavesyn_core.Multi_measure
module Ndarray = Wavesyn_util.Ndarray
module Pool = Wavesyn_par.Pool
module Wire = Wavesyn_server.Wire
module Admit = Wavesyn_server.Admit
module Shard = Wavesyn_server.Shard
module Rcache = Wavesyn_adaptive.Rcache

let rng = Prng.create ~seed:31415
let signal n = Signal.random_walk ~rng ~n ~step:3.
let rel1 = Metrics.Rel { sanity = 1.0 }

(* One case per timed group of bench/main.ml, at tiny sizes. *)
let cases =
  let data64 = signal 64 in
  let data128 = signal 128 in
  let data4096 = signal 4096 in
  let syn = Greedy_l2.threshold ~data:data4096 ~budget:32 in
  (* A quantile needs a positive total: the same walk, shifted to a
     floor of 1. *)
  let quantile_syn =
    let floor = Array.fold_left Float.min Float.infinity data4096 in
    Greedy_l2.threshold
      ~data:(Array.map (fun x -> x -. floor +. 1.) data4096)
      ~budget:32
  in
  (* The synopsis perfbench's read workloads serve: MinMaxErr,
     absolute error, B = 128 over the n = 1024 Zipf vector of data
     seed 42. *)
  let read_cold_syn =
    (Minmax_dp.solve ~budget:128 Metrics.Abs
       ~data:(Signal.zipf ~rng:(Prng.create ~seed:42) ~n:1024 ~alpha:1.2 ~scale:100.))
      .synopsis
  in
  let stream = Stream_synopsis.create ~n:4096 in
  let i = ref 0 in
  (* The observability overhead pair: the very same ladder request with
     instrumentation off (no registry) and on (live registry). *)
  let obs = Registry.create () in
  [
    Test.make ~name:"E1/haar1d-decompose:256"
      (Staged.stage
         (let d = signal 256 in
          fun () -> ignore (Wavesyn_haar.Haar1d.decompose d)));
    Test.make ~name:"E6/minmax-dp-N:64"
      (Staged.stage (fun () -> ignore (Minmax_dp.solve ~data:data64 ~budget:8 rel1)));
    Test.make ~name:"E6/minmax-dp-N:128"
      (Staged.stage (fun () -> ignore (Minmax_dp.solve ~data:data128 ~budget:8 rel1)));
    Test.make ~name:"E7/additive-1d:64"
      (Staged.stage (fun () ->
           ignore (Approx_additive.solve_1d ~data:data64 ~budget:6 ~epsilon:0.25 rel1)));
    Test.make ~name:"E10/range-sum-from-synopsis:4096"
      (Staged.stage (fun () -> ignore (Range_query.range_sum syn ~lo:100 ~hi:3000)));
    Test.make ~name:"E10/quantile-from-synopsis:4096"
      (Staged.stage (fun () -> ignore (Quantiles.search_synopsis quantile_syn ~q:0.37)));
    Test.make ~name:"E10/point-from-synopsis:1024-b128"
      (Staged.stage (fun () -> ignore (Synopsis.reconstruct_point read_cold_syn 613)));
    Test.make ~name:"E10/range-sum-from-synopsis:1024-b128"
      (Staged.stage (fun () -> ignore (Range_query.range_sum read_cold_syn ~lo:137 ~hi:801)));
    Test.make ~name:"E10/quantile-from-synopsis:1024-b128"
      (Staged.stage (fun () -> ignore (Quantiles.search_synopsis read_cold_syn ~q:0.37)));
    Test.make ~name:"E11/stream-update:4096"
      (Staged.stage (fun () ->
           i := (!i + 797) land 4095;
           Stream_synopsis.update stream ~i:!i ~delta:1.));
    Test.make ~name:"OBS/ladder-serve-plain:64"
      (Staged.stage (fun () ->
           ignore (Ladder.serve ~data:data64 ~budget:8 rel1)));
    Test.make ~name:"OBS/ladder-serve-instrumented:64"
      (Staged.stage (fun () ->
           ignore (Ladder.serve ~obs ~data:data64 ~budget:8 rel1)));
  ]

(* Flat-vs-reference kernel pairs (docs/KERNELS.md): identical
   results from different storage (and, for MinMaxErr, a different
   evaluation order) — the ratio within a pair is the payoff of the
   flat kernel. The recorded rows carry ns_per_state (ns_per_run /
   dp_states, each kernel's own count: cells for the bottom-up
   MinMaxErr kernel, memo states otherwise) so per-state cost is
   comparable across sizes. *)
(* A separate rng keeps these draws out of the main rng stream, so the
   pre-existing cases keep benchmarking the exact same inputs as older
   recordings. The same two arrays feed both the timed cases and the
   state count below. *)
let kernel_data128 =
  Signal.random_walk ~rng:(Prng.create ~seed:2718) ~n:128 ~step:3.

let kernel_data64 =
  Signal.random_walk ~rng:(Prng.create ~seed:2719) ~n:64 ~step:3.

(* The live-write re-cut's size (n=256, B=32, absolute error). *)
let kernel_data256 =
  Signal.random_walk ~rng:(Prng.create ~seed:2720) ~n:256 ~step:3.

(* One live-write refresh at the live-write size: a note for one
   update, then the refresh that re-solves and re-measures its dirty
   subtree and rebuilds the served synopsis. The cadence never asks for
   a full cut, so every run is the incremental step alone. *)
let write_path_cases =
  let stream = Stream_synopsis.of_data kernel_data256 in
  let inc =
    Incremental.create ~full_every:max_int ~budget:32 ~metric:Metrics.Abs
      ~epsilon:0.25 stream
  in
  let i = ref 0 in
  [
    Test.make ~name:"E11/incremental-refresh:256-b32"
      (Staged.stage (fun () ->
           i := (!i + 97) land 255;
           Incremental.note_update inc ~i:!i ~delta:0.5;
           Incremental.refresh inc stream));
  ]

(* The read workloads' cut (n=1024, B=128, absolute error) on their
   dataset: the benchmark servers' Zipf vector (alpha 1.2, scale 100,
   data seed 42). *)
let kernel_data1024 =
  Signal.zipf ~rng:(Prng.create ~seed:42) ~n:1024 ~alpha:1.2 ~scale:100.

(* read-sharded's per-shard cut: the first half of that vector, B=128. *)
let kernel_data512 = Array.sub kernel_data1024 0 512

let kernel_cases =
  let data128 = kernel_data128 in
  let data64 = kernel_data64 in
  [
    Test.make ~name:"KERNEL/minmax-flat:128"
      (Staged.stage (fun () ->
           ignore (Minmax_dp.solve ~data:data128 ~budget:8 rel1)));
    Test.make ~name:"KERNEL/minmax-flat:256-b32"
      (Staged.stage (fun () ->
           ignore
             (Minmax_dp.solve ~data:kernel_data256 ~budget:32 Metrics.Abs)));
    Test.make ~name:"KERNEL/minmax-flat:512-b128"
      (Staged.stage (fun () ->
           ignore
             (Minmax_dp.solve ~data:kernel_data512 ~budget:128 Metrics.Abs)));
    Test.make ~name:"KERNEL/minmax-flat:1024-b128"
      (Staged.stage (fun () ->
           ignore
             (Minmax_dp.solve ~data:kernel_data1024 ~budget:128 Metrics.Abs)));
    Test.make ~name:"KERNEL/minmax-reference:128"
      (Staged.stage (fun () ->
           ignore (Minmax_reference.solve ~data:data128 ~budget:8 rel1)));
    Test.make ~name:"KERNEL/md-flat:64"
      (Staged.stage (fun () ->
           ignore (Approx_abs.solve_1d ~data:data64 ~budget:8 ~epsilon:0.25 ())));
    Test.make ~name:"KERNEL/md-reference:64"
      (Staged.stage (fun () ->
           ignore
             (Md_reference.approx_abs
                ~tree:
                  (Wavesyn_haar.Md_tree.of_data
                     (Ndarray.of_flat_array ~dims:[| 64 |] data64))
                ~budget:8 ~epsilon:0.25)));
  ]

(* dp_states per run of the state-counted cases above (deterministic,
   so one extra solve per case suffices); keyed by the grouped case
   name for the ns_per_state column. *)
let kernel_states () =
  let minmax =
    (Minmax_dp.solve ~data:kernel_data128 ~budget:8 rel1).Minmax_dp.dp_states
  in
  let minmax_reference =
    (Minmax_reference.solve ~data:kernel_data128 ~budget:8 rel1)
      .Minmax_dp.dp_states
  in
  let minmax256 =
    (Minmax_dp.solve ~data:kernel_data256 ~budget:32 Metrics.Abs)
      .Minmax_dp.dp_states
  in
  let minmax512 =
    (Minmax_dp.solve ~data:kernel_data512 ~budget:128 Metrics.Abs)
      .Minmax_dp.dp_states
  in
  let minmax1024 =
    (Minmax_dp.solve ~data:kernel_data1024 ~budget:128 Metrics.Abs)
      .Minmax_dp.dp_states
  in
  let nd = Ndarray.of_flat_array ~dims:[| 64 |] kernel_data64 in
  let md =
    (Approx_abs.solve ~data:nd ~budget:8 ~epsilon:0.25 ()).Approx_abs.dp_states
  in
  [
    ("smoke/KERNEL/minmax-flat:128", minmax);
    ("smoke/KERNEL/minmax-flat:256-b32", minmax256);
    ("smoke/KERNEL/minmax-flat:512-b128", minmax512);
    ("smoke/KERNEL/minmax-flat:1024-b128", minmax1024);
    ("smoke/KERNEL/minmax-reference:128", minmax_reference);
    ("smoke/KERNEL/md-flat:64", md);
    ("smoke/KERNEL/md-reference:64", md);
  ]

(* Sequential-vs-pooled pairs for the deterministic solver pool
   (docs/PARALLELISM.md). The pooled runs return bit-identical results;
   only the wall clock may differ, and only on multicore hosts — the
   recording notes the host's core count so a 1-core container's
   numbers are not read as a parallelism regression. *)
(* The shared fan-out inputs, drawn once so the seq and pool4 passes
   time the same data. *)
let par_inputs () =
  let grid = Ndarray.init ~dims:[| 8; 8 |] (fun _ -> Prng.float rng 50.) in
  let measures = Array.init 3 (fun _ -> signal 64) in
  let data64 = signal 64 in
  (grid, measures, data64)

(* The dual search takes no pool, so its rows have no pool4 twin.
   The n=1024 row's target is the read workloads' cut's optimal error
   at B=128, which no smaller budget reaches, so the search answers
   past budget 0 and takes the forward pass. *)
let target1024 =
  let at b =
    (Minmax_dp.solve ~data:kernel_data1024 ~budget:b Metrics.Abs)
      .Minmax_dp.max_err
  in
  let t = at 128 in
  assert (at 127 > t);
  t

(* The sequential halves run in the pool-free pass: merely having idle
   worker domains alive skews every measurement on a small host (the
   multi-domain GC coordinates across them), so the seq twins must be
   timed with no pool in existence to be an honest -j1 baseline. *)
let par_seq_cases (grid, measures, data64) =
  [
    Test.make ~name:"PAR/approx-abs-seq:8x8"
      (Staged.stage (fun () ->
           ignore (Approx_abs.solve ~data:grid ~budget:12 ~epsilon:0.25 ())));
    Test.make ~name:"PAR/multi-measure-seq:3x64-b12"
      (Staged.stage (fun () ->
           ignore (Multi_measure.solve ~measures ~budget:12 rel1)));
    Test.make ~name:"PAR/budget-for-seq:64"
      (Staged.stage (fun () ->
           ignore (Minmax_dp.budget_for ~data:data64 ~target:2.5 rel1)));
    Test.make ~name:"PAR/budget-for-seq:1024"
      (Staged.stage (fun () ->
           ignore
             (Minmax_dp.budget_for ~data:kernel_data1024 ~target:target1024
                Metrics.Abs)));
  ]

let par_pool_cases pool4 (grid, measures, _) =
  [
    Test.make ~name:"PAR/approx-abs-pool4:8x8"
      (Staged.stage (fun () ->
           ignore
             (Approx_abs.solve ~pool:pool4 ~data:grid ~budget:12 ~epsilon:0.25
                ())));
    Test.make ~name:"PAR/multi-measure-pool4:3x64-b12"
      (Staged.stage (fun () ->
           ignore (Multi_measure.solve ~pool:pool4 ~measures ~budget:12 rel1)));
  ]

(* Wire-protocol and admission-control hot paths of the serving
   subsystem (docs/SERVING.md). All pure in-process work: framing a
   request, decoding a framed reply (CRC check included), and a full
   offer/drain cycle through the bounded admission queue. Recorded so
   later protocol changes show up as perf moves. *)
(* One scatter-gather round through the Shard router (in-process rpc
   stubs answering exact sums, so the row isolates routing and merge
   overhead): a point, a cross-shard range and a quantile bisection,
   at 1 shard vs 4 — the per-request cost of the sharded front-end. *)
let srv_shard_case ~shards =
  let n = 256 in
  let data = Array.init n (fun i -> float_of_int (((i * 37) mod 101) + 3)) in
  let ranges =
    match Shard.split ~n ~shards with Ok r -> r | Error e -> failwith e
  in
  let rpc_of { Shard.lo; hi } =
    let slice = Array.sub data lo (hi - lo + 1) in
    fun req ->
      match req with
      | Wire.Point i -> Ok [ Wire.Value slice.(i) ]
      | Wire.Range { lo; hi } ->
          let s = ref 0. in
          for i = lo to hi do
            s := !s +. slice.(i)
          done;
          Ok [ Wire.Value !s ]
      | _ -> Ok [ Wire.Pong ]
  in
  let router =
    match
      Shard.router ~n ~ranges (Array.of_list (List.map rpc_of ranges))
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  Test.make
    ~name:(Printf.sprintf "SRV/shard-route-mixed:%d" shards)
    (Staged.stage (fun () ->
         ignore (Shard.eval router (Wire.Point (n / 2)));
         ignore (Shard.eval router (Wire.Range { lo = 7; hi = n - 9 }));
         ignore (Shard.eval router (Wire.Quantile 0.5))))

(* The result-cache A/B twin (docs/ADAPTIVE.md): the serving loop's
   per-request range evaluation over a hot set of 8 distinct ranges
   asked 64 times — the repeated traffic a cache exists for. The
   nocache row evaluates every probe with [Range_query.range_sum], the
   server's path; the cache row consults an Rcache keyed as the
   server's is (RANGE requests under [Wire.read_hash] /
   [Wire.read_equal]) first. wavesyn-benchgate requires the cache row
   to beat its nocache twin — a cache that does not pay for its lookups
   fails the gate. *)
let srv_cache_case ~cache =
  let n = 256 in
  let data = Array.init n (fun i -> float_of_int (((i * 37) mod 101) + 3)) in
  let syn = Greedy_l2.threshold ~data ~budget:32 in
  let hot =
    Array.init 8 (fun i ->
        let lo = (i * 29) mod (n / 2) in
        (lo, lo + 63))
  in
  let eval (lo, hi) = Range_query.range_sum syn ~lo ~hi in
  if not cache then
    Test.make ~name:"SRV/range-eval-nocache:64"
      (Staged.stage (fun () ->
           for i = 0 to 63 do
             ignore (eval hot.(i land 7))
           done))
  else
    let keys = Array.map (fun (lo, hi) -> Wire.Range { lo; hi }) hot in
    let c : (Wire.request, float) Rcache.t =
      Rcache.create ~cap:64 ~hash:Wire.read_hash ~equal:Wire.read_equal ()
    in
    Test.make ~name:"SRV/range-eval-cache:64"
      (Staged.stage (fun () ->
           for i = 0 to 63 do
             let key = keys.(i land 7) in
             match Rcache.find c ~epoch:0 key with
             | Some v -> ignore v
             | None -> Rcache.add c ~epoch:0 key (eval hot.(i land 7))
           done))

let srv_cases =
  let batch =
    Wire.Batch
      (List.init 8 (fun i ->
           if i mod 2 = 0 then Wire.Point i
           else Wire.Range { lo = i; hi = i + 7 }))
  in
  let framed_reply = Wire.encode_reply (Wire.Value 1496.640625) in
  let framed_batch = Wire.encode_request batch in
  let admit = Admit.create ~bound:64 () in
  [
    Test.make ~name:"SRV/wire-encode-batch:8"
      (Staged.stage (fun () -> ignore (Wire.encode_request batch)));
    Test.make ~name:"SRV/wire-decode-reply"
      (Staged.stage (fun () ->
           ignore
             (Wire.decode
                (Bytes.of_string framed_reply)
                ~pos:0
                ~len:(String.length framed_reply))));
    Test.make ~name:"SRV/wire-decode-batch:8"
      (Staged.stage (fun () ->
           ignore
             (Wire.decode
                (Bytes.of_string framed_batch)
                ~pos:0
                ~len:(String.length framed_batch))));
    Test.make ~name:"SRV/admit-offer-drain:32"
      (Staged.stage (fun () ->
           for i = 0 to 31 do
             ignore (Admit.offer admit i)
           done;
           ignore (Admit.take_batch admit);
           ignore (Admit.note_round admit ~shed:0)));
    srv_shard_case ~shards:1;
    srv_shard_case ~shards:4;
    srv_cache_case ~cache:false;
    srv_cache_case ~cache:true;
  ]

(* Minor-heap words allocated, as a Bechamel measure. Bechamel's own
   [Instance.minor_allocated] reads [Gc.quick_stat], whose minor_words
   only advance at a minor collection on OCaml 5 (a case that
   allocates less than the minor heap between samples reads as 0);
   [Gc.minor_words] includes the current minor heap's fill. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* Every case is measured for time and for minor-heap allocation
   (words per run): one OLS estimate table per instance. *)
let benchmark tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock; minor_words ] in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.2) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"smoke" ~fmt:"%s/%s" tests in
  let raw = Benchmark.all cfg instances grouped in
  ( Analyze.all ols Instance.monotonic_clock raw,
    Analyze.all ols minor_words raw )

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* [states] maps a case name to its per-run DP state count; such rows
   also carry dp_states and the derived ns_per_state column. *)
let write_rows oc ~schema ~extra ?(states = []) rows =
  Printf.fprintf oc "{\n  \"schema\": \"%s\",%s\n  \"results\": [\n" schema
    extra;
  List.iteri
    (fun k (name, ns, words) ->
      let state_cols =
        match List.assoc_opt name states with
        | Some s when s > 0 ->
            Printf.sprintf ", \"dp_states\": %d, \"ns_per_state\": %.2f" s
              (ns /. float_of_int s)
        | _ -> ""
      in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"ns_per_run\": %.1f, \"words_per_run\": \
         %.0f%s}%s\n"
        (json_escape name) ns words state_cols
        (if k = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n"

(* Words per run are whole numbers for these deterministic cases; the
   OLS slope only adds float noise, so they are rounded (and clamped at
   zero), which keeps the benchgate words check exact. *)
let rows_of (times, words) =
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some ols -> (
        match Analyze.OLS.estimates ols with
        | Some (x :: _) -> x
        | _ -> Float.nan)
    | None -> Float.nan
  in
  Hashtbl.fold
    (fun name _ acc ->
      let w = Float.max 0. (Float.round (estimate words name)) in
      (name, estimate times name, w) :: acc)
    times []

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_obs.json" in
  let inputs = par_inputs () in
  (* Pass 1, pool-free: every sequential case (see par_seq_cases on
     why no pool may exist here). Pass 2: the pooled twins, with the
     4-domain pool alive only for this pass. *)
  let seq_results =
    benchmark
      (cases @ write_path_cases @ kernel_cases @ srv_cases
     @ par_seq_cases inputs)
  in
  let pool4 = Pool.create ~domains:4 () in
  let pool_results = benchmark (par_pool_cases pool4 inputs) in
  Pool.shutdown pool4;
  let rows =
    rows_of seq_results @ rows_of pool_results
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let states = kernel_states () in
  let oc = open_out out in
  (* The host's core count: on a 1-core container the pooled PAR
     numbers legitimately match (or slightly trail) the sequential
     ones, and benchgate's pooled gate skips. *)
  write_rows oc ~schema:"wavesyn-bench-smoke/2"
    ~extra:
      (Printf.sprintf "\n  \"host_recommended_domains\": %d,"
         (Domain.recommended_domain_count ()))
    ~states rows;
  close_out oc;
  List.iter
    (fun (name, ns, words) ->
      Printf.printf "%-40s %12.1f ns/run %12.0f words/run\n" name ns words)
    rows;
  Printf.printf "wrote %s\n" out
