(* The deterministic solver pool: pool semantics under stress, and
   bit-for-bit equality of every pooled solver against its sequential
   run for pool sizes 1, 2, 4 and 8 (docs/PARALLELISM.md). *)

module Pool = Wavesyn_par.Pool
module Approx_abs = Wavesyn_core.Approx_abs
module Multi_measure = Wavesyn_core.Multi_measure
module Metrics = Wavesyn_synopsis.Metrics
module Synopsis = Wavesyn_synopsis.Synopsis
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let jobs_list = [ 1; 2; 4; 8 ]
let instances = 50

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- pool semantics --- *)

let test_map_chunked_identity () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          List.iter
            (fun n ->
              let got = Pool.map_chunked p n (fun i -> i * i) in
              let want = Array.init n (fun i -> i * i) in
              check
                (Printf.sprintf "domains=%d n=%d" domains n)
                true (got = want))
            [ 0; 1; 7; 64; 1000 ]))
    jobs_list

let test_nested_submit () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          (* tasks of the outer batch submit inner batches on the same
             pool; help-while-wait means this cannot deadlock even with
             every domain blocked in an outer task. *)
          let got =
            Pool.map_chunked p 8 (fun i ->
                Array.fold_left ( + ) 0
                  (Pool.map_chunked p 8 (fun j -> (10 * i) + j)))
          in
          let want = Array.init 8 (fun i -> (80 * i) + 28) in
          check (Printf.sprintf "domains=%d nested" domains) true (got = want)))
    jobs_list

exception Boom of int

let test_exception_lowest_index_wins () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          for _ = 1 to 20 do
            match Pool.map_chunked p 64 (fun i -> if i >= 3 then raise (Boom i) else i) with
            | _ -> Alcotest.fail "expected the batch to raise"
            | exception Boom i ->
                checki (Printf.sprintf "domains=%d deterministic raiser" domains) 3 i
          done))
    jobs_list

(* A one-domain pool maps on the calling domain: the result array and
   nothing else — no slot table, failure lock or chunk closure. *)
let test_one_domain_words () =
  with_pool ~domains:1 (fun p ->
      let n = 8 in
      let f = Fun.id in
      ignore (Pool.map_chunked p n f);
      let w0 = Gc.minor_words () in
      for _ = 1 to 100 do
        ignore (Sys.opaque_identity (Pool.map_chunked p n f))
      done;
      let words = (Gc.minor_words () -. w0) /. 100. in
      check
        (Printf.sprintf "%.1f words per call (<= %d)" words (n + 1))
        true
        (words <= float_of_int (n + 1)))

let test_shutdown_idempotent () =
  let p = Pool.create ~domains:4 () in
  ignore (Pool.map_chunked p 16 Fun.id);
  Pool.shutdown p;
  Pool.shutdown p;
  (match Pool.map_chunked p 4 Fun.id with
  | _ -> Alcotest.fail "expected submission after shutdown to raise"
  | exception Invalid_argument _ -> ());
  Pool.shutdown p

let test_create_rejects_nonpositive () =
  match Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "expected create ~domains:0 to raise"
  | exception Invalid_argument _ -> ()

(* --- solver determinism: pooled runs equal the sequential run --- *)

let synopsis_repr s = (Synopsis.n s, Synopsis.coeffs s)

let test_approx_abs_determinism () =
  for trial = 1 to instances do
    let rng = Prng.create ~seed:(2000 + trial) in
    let side = 4 lsl (trial mod 2) in
    let data =
      Ndarray.init ~dims:[| side; side |] (fun _ ->
          float_of_int (Prng.int rng 41 - 20))
    in
    let budget = Prng.int rng 9 in
    let epsilon = 0.1 +. Prng.float rng 0.8 in
    let seq = Approx_abs.solve ~data ~budget ~epsilon () in
    List.iter
      (fun domains ->
        with_pool ~domains (fun p ->
            let par = Approx_abs.solve ~pool:p ~data ~budget ~epsilon () in
            let label what =
              Printf.sprintf "trial %d domains=%d %s" trial domains what
            in
            check (label "max_err") true
              (par.Approx_abs.max_err = seq.Approx_abs.max_err);
            check (label "tau") true (par.Approx_abs.tau = seq.Approx_abs.tau);
            checki (label "dp_states") seq.Approx_abs.dp_states
              par.Approx_abs.dp_states;
            checki (label "sweeps") seq.Approx_abs.sweeps par.Approx_abs.sweeps;
            check (label "synopsis") true
              (Synopsis.Md.coeffs par.Approx_abs.synopsis
              = Synopsis.Md.coeffs seq.Approx_abs.synopsis)))
      jobs_list
  done

let test_multi_measure_determinism () =
  for trial = 1 to instances do
    let rng = Prng.create ~seed:(3000 + trial) in
    let m = 2 + (trial mod 2) in
    let measures =
      Array.init m (fun k ->
          Array.init 16 (fun _ -> Prng.float rng (10. *. float_of_int (k + 1))))
    in
    let budget = Prng.int rng 25 in
    let metric =
      if trial mod 2 = 0 then Metrics.Abs else Metrics.Rel { sanity = 2. }
    in
    let seq = Multi_measure.solve ~measures ~budget metric in
    List.iter
      (fun domains ->
        with_pool ~domains (fun p ->
            let par = Multi_measure.solve ~pool:p ~measures ~budget metric in
            let label what =
              Printf.sprintf "trial %d domains=%d %s" trial domains what
            in
            check (label "budgets") true
              (par.Multi_measure.budgets = seq.Multi_measure.budgets);
            check (label "max_err") true
              (par.Multi_measure.max_err = seq.Multi_measure.max_err);
            check (label "per-measure errors") true
              (par.Multi_measure.per_measure_err
              = seq.Multi_measure.per_measure_err);
            check (label "synopses") true
              (Array.map synopsis_repr par.Multi_measure.synopses
              = Array.map synopsis_repr seq.Multi_measure.synopses)))
      jobs_list
  done

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "map_chunked identity" `Quick
            test_map_chunked_identity;
          Alcotest.test_case "nested submit" `Quick test_nested_submit;
          Alcotest.test_case "exception lowest index wins" `Quick
            test_exception_lowest_index_wins;
          Alcotest.test_case "one domain allocates the result only" `Quick
            test_one_domain_words;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent;
          Alcotest.test_case "create rejects nonpositive" `Quick
            test_create_rejects_nonpositive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "approx_abs" `Slow test_approx_abs_determinism;
          Alcotest.test_case "multi_measure" `Slow
            test_multi_measure_determinism;
        ] );
    ]
