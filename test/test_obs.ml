(* Observability core (lib/obs) and its integration contract.

   Under test: instrument arithmetic (bucket placement, quantile
   interpolation, NaN hygiene), registry naming rules (idempotent
   lookup, loud collisions), the trace ring buffer, both exposition
   formats — and the property the whole layer stands on: enabling
   metrics never changes an answer or a count. *)

module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry
module Trace = Wavesyn_obs.Trace
module Mclock = Wavesyn_obs.Mclock
module Ladder = Wavesyn_robust.Ladder
module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Prng = Wavesyn_util.Prng
module Retry = Wavesyn_robust.Retry
module Fault = Wavesyn_robust.Fault
module Incremental = Wavesyn_robust.Incremental
module Rcache = Wavesyn_adaptive.Rcache
module Profiler = Wavesyn_adaptive.Profiler
module Admit = Wavesyn_server.Admit

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* --- Mclock --- *)

let test_mclock () =
  let a = Mclock.now_ns () in
  let b = Mclock.now_ns () in
  check "monotonic" true (Int64.compare b a >= 0);
  check "ms_since non-negative" true (Mclock.ms_since a >= 0.)

(* --- counters and gauges --- *)

let test_counter_gauge () =
  let c = Metric.counter () in
  Metric.incr c;
  Metric.incr ~by:41 c;
  checki "counter accumulates" 42 (Metric.counter_value c);
  Metric.incr ~by:0 c;
  checki "by:0 is a no-op" 42 (Metric.counter_value c);
  check "negative increments rejected" true
    (raises_invalid (fun () -> Metric.incr ~by:(-1) c));
  let g = Metric.gauge () in
  Metric.set g 3.5;
  Metric.set g (-2.);
  checkf "gauge keeps the last value" (-2.) (Metric.gauge_value g)

(* --- histogram buckets --- *)

let test_histogram_buckets () =
  let h = Metric.histogram ~bounds:[| 1.; 2.; 4. |] () in
  (* One observation per region: bucket upper bounds are inclusive. *)
  List.iter (Metric.observe h) [ 0.5; 1.0; 1.5; 4.0; 9.0 ];
  checki "count" 5 (Metric.hist_count h);
  check "buckets" true (Metric.bucket_counts h = [| 2; 1; 1; 1 |]);
  checkf "sum" 16.0 (Metric.hist_sum h);
  checkf "min" 0.5 (Metric.hist_min h);
  checkf "max" 9.0 (Metric.hist_max h);
  check "cumulative view" true
    (Metric.cumulative h = [ (1., 2); (2., 3); (4., 4); (infinity, 5) ]);
  (* Invalid bounds are a programming error, caught loudly. *)
  check "empty bounds rejected" true
    (raises_invalid (fun () -> Metric.histogram ~bounds:[||] ()));
  check "non-increasing bounds rejected" true
    (raises_invalid (fun () -> Metric.histogram ~bounds:[| 1.; 1. |] ()));
  check "non-finite bounds rejected" true
    (raises_invalid (fun () -> Metric.histogram ~bounds:[| 1.; infinity |] ()))

let test_histogram_nan_hygiene () =
  let h = Metric.histogram ~bounds:[| 1.; 2. |] () in
  Metric.observe h 1.5;
  Metric.observe h Float.nan;
  Metric.observe h Float.infinity;
  checki "non-finite observations counted" 3 (Metric.hist_count h);
  check "in the overflow bucket" true (Metric.bucket_counts h = [| 0; 1; 2 |]);
  checkf "but excluded from sum" 1.5 (Metric.hist_sum h);
  checkf "and from min" 1.5 (Metric.hist_min h);
  checkf "and from max" 1.5 (Metric.hist_max h)

let test_histogram_quantiles () =
  let h = Metric.histogram ~bounds:[| 1.; 2.; 4. |] () in
  check "empty quantile is nan" true (Float.is_nan (Metric.quantile h 0.5));
  (* 100 observations uniform over (1, 2]: interpolation inside the
     covering bucket reproduces the uniform quantiles. *)
  for k = 1 to 100 do
    Metric.observe h (1. +. (float_of_int k /. 100.))
  done;
  checkf "q=0 clamps to min" 1.01 (Metric.quantile h 0.);
  checkf "q=1 clamps to max" 2.0 (Metric.quantile h 1.);
  let q50 = Metric.quantile h 0.5 in
  check "median inside the covering bucket" true (q50 > 1.4 && q50 <= 1.6);
  check "q outside [0,1] rejected" true
    (raises_invalid (fun () -> Metric.quantile h 1.5));
  (* All mass in one bucket below several empty ones: the estimate must
     stay within the observed range, not wander into empty buckets. *)
  let h2 = Metric.histogram ~bounds:[| 1.; 2.; 4. |] () in
  Metric.observe h2 0.25;
  Metric.observe h2 0.75;
  let q90 = Metric.quantile h2 0.9 in
  check "clamped to observed max" true (q90 <= 0.75 +. 1e-9)

(* The deterministic bound exported by the expositions: a pure function
   of the bucket counts, independent of the observed min/max floats. *)
let test_histogram_quantile_le () =
  let h = Metric.histogram ~bounds:[| 1.; 2.; 4. |] () in
  check "empty is nan" true (Float.is_nan (Metric.quantile_le h 0.5));
  (* 10 observations: 6 in (0,1], 3 in (1,2], 1 overflowing. *)
  for _ = 1 to 6 do Metric.observe h 0.5 done;
  for _ = 1 to 3 do Metric.observe h 1.5 done;
  Metric.observe h 9.;
  checkf "p0 is the first nonempty bound" 1. (Metric.quantile_le h 0.);
  checkf "p50 covers 5 of 10" 1. (Metric.quantile_le h 0.5);
  checkf "p60 still inside the first bucket" 1. (Metric.quantile_le h 0.6);
  checkf "p90 needs the second bucket" 2. (Metric.quantile_le h 0.9);
  check "p99 lands in the overflow bucket" true
    (Metric.quantile_le h 0.99 = Float.infinity);
  check "q outside [0,1] rejected" true
    (raises_invalid (fun () -> Metric.quantile_le h 1.5));
  (* Determinism: a histogram with the same counts but different raw
     observations (hence different min/max) exports the same bounds,
     where the interpolating {!Metric.quantile} does not. *)
  let h2 = Metric.histogram ~bounds:[| 1.; 2.; 4. |] () in
  for _ = 1 to 6 do Metric.observe h2 0.9 done;
  for _ = 1 to 3 do Metric.observe h2 1.1 done;
  Metric.observe h2 100.;
  checkf "same counts, same p50" (Metric.quantile_le h 0.5)
    (Metric.quantile_le h2 0.5);
  checkf "same counts, same p90" (Metric.quantile_le h 0.9)
    (Metric.quantile_le h2 0.9)

(* --- registry --- *)

let test_registry_names () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "store.ingest.accepted");
  ignore (Registry.counter reg "a.b_2.c");
  List.iter
    (fun bad ->
      check (bad ^ " rejected") true
        (raises_invalid (fun () -> Registry.counter reg bad)))
    [ ""; "Store.x"; "store..x"; ".store"; "store."; "store x"; "2store" ];
  List.iter
    (fun bad ->
      check "bad labels rejected" true
        (raises_invalid (fun () ->
             Registry.counter reg ~labels:bad "lbl.test")))
    [
      [ ("Tier", "minmax") ];
      [ ("tier", "with\"quote") ];
      [ ("tier", "a,b") ];
      [ ("tier", "x"); ("tier", "y") ];
    ]

let test_registry_idempotent () =
  let reg = Registry.create () in
  let c1 = Registry.counter reg ~help:"h" ~unit_:"u" "x.y" in
  let c2 = Registry.counter reg "x.y" in
  Metric.incr c1;
  checki "same instrument returned" 1 (Metric.counter_value c2);
  let l1 = Registry.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "x.z" in
  let l2 = Registry.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "x.z" in
  Metric.incr l1;
  checki "label order is canonicalized" 1 (Metric.counter_value l2);
  checki "two distinct instruments" 2 (Registry.size reg)

let test_registry_collisions () =
  let reg = Registry.create () in
  ignore (Registry.counter reg ~help:"events" ~unit_:"u" "c.a");
  check "kind collision" true
    (raises_invalid (fun () -> Registry.gauge reg "c.a"));
  check "help collision" true
    (raises_invalid (fun () -> Registry.counter reg ~help:"other" "c.a"));
  check "unit collision" true
    (raises_invalid (fun () -> Registry.counter reg ~unit_:"v" "c.a"));
  ignore (Registry.histogram reg ~bounds:[| 1.; 2. |] "c.h");
  check "bounds collision" true
    (raises_invalid (fun () ->
         Registry.histogram reg ~bounds:[| 1.; 3. |] "c.h"));
  ignore (Registry.histogram reg ~bounds:[| 1.; 2. |] "c.h");
  checki "collisions registered nothing" 2 (Registry.size reg)

let test_exposition () =
  let reg = Registry.create () in
  Metric.incr ~by:7
    (Registry.counter reg ~help:"accepted" ~unit_:"updates" "s.acc");
  Metric.set (Registry.gauge reg ~help:"seq" ~unit_:"seq" "s.seq") 40.;
  let h =
    Registry.histogram reg ~help:"lat" ~unit_:"ms" ~bounds:[| 1.; 2. |]
      "s.lat"
  in
  Metric.observe h 0.5;
  Metric.observe h 1.5;
  let table = Registry.render_table reg in
  let expected_table =
    "counter    s.acc                                        7 updates\n\
     histogram  s.lat                                        count=2 \
     sum=2.000 min=0.500 p50<=1.000 p95<=2.000 p99<=2.000 max=1.500 ms\n\
     gauge      s.seq                                        40 seq\n"
  in
  Alcotest.(check string) "table golden" expected_table table;
  let prom = Registry.render_prometheus reg in
  let expected_prom =
    "# HELP wavesyn_s_acc accepted\n\
     # TYPE wavesyn_s_acc counter\n\
     wavesyn_s_acc 7\n\
     # HELP wavesyn_s_lat lat\n\
     # TYPE wavesyn_s_lat histogram\n\
     wavesyn_s_lat_bucket{le=\"1\"} 1\n\
     wavesyn_s_lat_bucket{le=\"2\"} 2\n\
     wavesyn_s_lat_bucket{le=\"+Inf\"} 2\n\
     wavesyn_s_lat_sum 2\n\
     wavesyn_s_lat_count 2\n\
     # HELP wavesyn_s_seq seq\n\
     # TYPE wavesyn_s_seq gauge\n\
     wavesyn_s_seq 40\n"
  in
  Alcotest.(check string) "prometheus golden" expected_prom prom

(* --- trace --- *)

let test_trace_nesting () =
  let sink = Trace.sink () in
  let v =
    Trace.with_span sink "outer" (fun () ->
        Trace.with_span sink "inner" (fun () -> 42))
  in
  checki "value passes through" 42 v;
  (match Trace.spans sink with
  | [ inner; outer ] ->
      check "child finishes first" true (inner.Trace.name = "inner");
      check "parent linked" true (inner.Trace.parent = Some outer.Trace.id);
      check "outer is a root" true (outer.Trace.parent = None)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  (* A raising span still records, and re-raises. *)
  (match
     Trace.with_span sink "boom" (fun () -> raise (Failure "injected"))
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must re-raise");
  checki "raising span recorded" 3 (Trace.recorded sink);
  (* ...and did not corrupt the ambient stack for later spans. *)
  Trace.with_span sink "after" (fun () -> ());
  (match List.rev (Trace.spans sink) with
  | after :: _ -> check "after is a root" true (after.Trace.parent = None)
  | [] -> Alcotest.fail "span missing")

let test_trace_ring () =
  let sink = Trace.sink ~capacity:4 () in
  for k = 1 to 10 do
    Trace.with_span sink (Printf.sprintf "s%d" k) (fun () -> ())
  done;
  checki "recorded counts everything" 10 (Trace.recorded sink);
  checki "dropped = overflow" 6 (Trace.dropped sink);
  let names = List.map (fun s -> s.Trace.name) (Trace.spans sink) in
  check "newest retained, oldest first" true
    (names = [ "s7"; "s8"; "s9"; "s10" ]);
  check "capacity must be positive" true
    (raises_invalid (fun () -> Trace.sink ~capacity:0 ()))

(* --- neutrality: metrics never change an answer --- *)

let prop_ladder_obs_neutral =
  QCheck.Test.make ~name:"ladder answer identical with and without metrics"
    ~count:40
    QCheck.(
      pair (int_bound 1000) (int_range 1 16))
    (fun (seed, budget) ->
      let rng = Prng.create ~seed in
      let data = Array.init 64 (fun _ -> float_of_int (Prng.int rng 100)) in
      (* The same seeded plan on both sides: about half the bounded
         tiers expire, so degraded tiers are compared too. *)
      let fault () =
        Fault.create ~kinds:[ Fault.Expire_deadline ] ~rate:0.5 ~seed ()
      in
      let plain = Ladder.serve ~fault:(fault ()) ~data ~budget Metrics.Abs in
      let reg = Registry.create () in
      let observed =
        Ladder.serve ~obs:reg ~trace:(Trace.sink ()) ~fault:(fault ()) ~data
          ~budget Metrics.Abs
      in
      match (plain, observed) with
      | Ok a, Ok b ->
          a.Ladder.tier = b.Ladder.tier
          && a.Ladder.max_err = b.Ladder.max_err
          && Synopsis.to_string a.Ladder.synopsis
             = Synopsis.to_string b.Ladder.synopsis
      | _ -> false)

let prop_stream_observer_neutral =
  QCheck.Test.make
    ~name:"stream observer never changes the coefficient state" ~count:60
    QCheck.(int_bound 1000)
    (fun seed ->
      let apply ~observe =
        let t = Stream_synopsis.create ~n:32 in
        if observe then Stream_synopsis.set_observer t (Some (fun _ -> ()));
        let rng = Prng.create ~seed in
        for _ = 1 to 50 do
          Stream_synopsis.update t ~i:(Prng.int rng 32)
            ~delta:(float_of_int (Prng.int rng 19 - 9))
        done;
        Stream_synopsis.coeffs t
      in
      apply ~observe:true = apply ~observe:false)

let test_observer_reports_path_length () =
  let t = Stream_synopsis.create ~n:16 in
  let total = ref 0 and calls = ref 0 in
  Stream_synopsis.set_observer t
    (Some
       (fun touches ->
         incr calls;
         total := !total + touches));
  Stream_synopsis.update t ~i:3 ~delta:1.;
  Stream_synopsis.update t ~i:9 ~delta:(-2.);
  checki "one call per update" 2 !calls;
  (* path length is log2 16 + 1 = 5 *)
  checki "touches = log2 n + 1 each" 10 !total;
  Stream_synopsis.set_observer t None;
  Stream_synopsis.update t ~i:0 ~delta:1.;
  checki "detached observer is silent" 2 !calls

(* --- supervisor integration: metrics mirror stats --- *)

let with_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "wavesyn_obs_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let counter_value reg ?labels name =
  Metric.counter_value (Registry.counter reg ?labels name)

let test_supervisor_metrics () =
  with_store (fun dir ->
      let reg = Registry.create () in
      let cfg =
        Supervisor.config ~checkpoint_every:8 ~recut_every:4 ~sync:false ~dir
          ~n:32 ~budget:4 Metrics.Abs
      in
      let sup =
        match Supervisor.open_store ~obs:reg cfg with
        | Ok s -> s
        | Error e -> Alcotest.fail (Wavesyn_robust.Validate.to_string e)
      in
      let rng = Prng.create ~seed:5 in
      for _ = 1 to 16 do
        match
          Supervisor.ingest sup ~i:(Prng.int rng 32)
            ~delta:(float_of_int (Prng.int rng 9 - 4))
        with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Wavesyn_robust.Validate.to_string e)
      done;
      (* An invalid update is rejected and counted as such. *)
      (match Supervisor.ingest sup ~i:99 ~delta:1. with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-domain ingest must fail");
      let stats = Supervisor.stats sup in
      checki "accepted mirrors acked" stats.Supervisor.acked
        (counter_value reg "store.ingest.accepted");
      checki "one rejection" 1 (counter_value reg "store.ingest.rejected");
      checki "appends mirror acked" stats.Supervisor.acked
        (counter_value reg "store.journal.appends");
      checki "no fsyncs when sync=false" 0
        (counter_value reg "store.journal.fsyncs");
      checki "recuts mirror stats" stats.Supervisor.recuts_served
        (counter_value reg "store.recut.served");
      checki "checkpoints mirror stats" stats.Supervisor.checkpoints
        (counter_value reg "store.checkpoint.completed");
      checki "live updates counted" 16 (counter_value reg "stream.updates");
      (* log2 32 + 1 = 6 coefficient touches per update *)
      checki "coefficient touches" (16 * 6)
        (counter_value reg "stream.coeff_touches");
      checki "ladder serves mirror recuts" stats.Supervisor.recuts_served
        (counter_value reg ~labels:[ ("tier", "minmax") ] "ladder.serves");
      check "seq gauge tracks" true
        (Metric.gauge_value (Registry.gauge reg "store.seq")
        = float_of_int stats.Supervisor.seq);
      checki "ingest latency histogram count = attempts" 17
        (Metric.hist_count
           (Registry.histogram reg ~unit_:"ms" "store.ingest.ms"));
      Supervisor.close sup;
      (* Reopen with a fresh registry: replay is recovery, not live
         traffic. *)
      let reg2 = Registry.create () in
      let sup2 =
        match Supervisor.open_store ~obs:reg2 cfg with
        | Ok s -> s
        | Error e -> Alcotest.fail (Wavesyn_robust.Validate.to_string e)
      in
      checki "replayed counted once"
        (Supervisor.last_recovery sup2).Supervisor.replayed
        (counter_value reg2 "store.recovery.replayed");
      checki "no live stream traffic after replay" 0
        (counter_value reg2 "stream.updates");
      Supervisor.close sup2)

(* --- neutrality: a count does not depend on the registry ---

   Each schedule runs twice, with and without a registry. Every
   accessor and [stats] field is listed as [(cell, value)]: [cell]
   names the registered counter the value must equal, [None] a value
   no counter owns. Both runs must list the same values. *)

type count = { cell : (string * Registry.labels) option; value : int }

let owned ?(labels = []) name value = { cell = Some (name, labels); value }
let unowned value = { cell = None; value }

let cells_match reg counts =
  List.for_all
    (fun c ->
      match c.cell with
      | None -> true
      | Some (name, labels) -> counter_value reg ~labels name = c.value)
    counts

let neutral_counts ?(covered = fun _ -> true) run seed =
  let plain = run None seed in
  let reg = Registry.create () in
  let observed = run (Some reg) seed in
  covered plain
  && List.map (fun c -> c.value) plain = List.map (fun c -> c.value) observed
  && cells_match reg observed

let component_counts obs seed =
  let rng = Prng.create ~seed in
  let cache = Rcache.create ?obs ~cap:4 () in
  let epoch = ref 0 in
  for _ = 1 to 200 do
    if Prng.int rng 16 = 0 then incr epoch;
    let key = Prng.int rng 8 in
    match Rcache.find cache ~epoch:!epoch key with
    | Some _ -> ()
    | None -> Rcache.add cache ~epoch:!epoch key key
  done;
  let admit = Admit.create ?obs ~bound:4 () in
  for _ = 1 to 40 do
    let shed = ref 0 in
    for _ = 1 to Prng.int rng 8 do
      if not (Admit.offer admit ()) then incr shed
    done;
    ignore (Admit.take_batch admit);
    ignore (Admit.note_round admit ~shed:!shed)
  done;
  let now = ref 0. in
  let breaker =
    Retry.Breaker.create ~threshold:2 ~cooldown_ms:3.
      ~clock:(fun () -> !now)
      ?obs ~name:"neutral" ()
  in
  for _ = 1 to 100 do
    now := !now +. 1.;
    let ok = Prng.int rng 3 > 0 in
    ignore
      (Retry.Breaker.call breaker (fun () -> if ok then Ok () else Error ()))
  done;
  let stream = Stream_synopsis.create ~n:32 in
  let inc =
    Incremental.create ?obs ~full_every:8 ~budget:4 ~metric:Metrics.Abs
      ~epsilon:0.25 stream
  in
  for _ = 1 to 60 do
    let i = Prng.int rng 32 and delta = float_of_int (Prng.int rng 9 - 4) in
    Stream_synopsis.update stream ~i ~delta;
    Incremental.note_update inc ~i ~delta;
    if Incremental.due_full inc then ignore (Incremental.full_cut inc stream)
    else if Prng.int rng 3 = 0 then Incremental.refresh inc stream
  done;
  let profiler = Profiler.create ?obs () in
  let kinds = [| `Point; `Range; `Selectivity; `Quantile |] in
  for _ = 1 to 50 do
    Profiler.observe profiler kinds.(Prng.int rng 4)
  done;
  let inc_st = Incremental.stats inc and mix = Profiler.observed profiler in
  let observed kind = owned ~labels:[ ("kind", kind) ] "adaptive.observed" in
  let breaker_labels = [ ("breaker", "neutral") ] in
  [
    owned "serve.cache.hits" (Rcache.hits cache);
    owned "serve.cache.misses" (Rcache.misses cache);
    owned "serve.cache.invalidations" (Rcache.invalidations cache);
    unowned (Rcache.size cache);
    owned "server.shed" (Admit.shed_total admit);
    owned "server.admitted" (Admit.admitted_total admit);
    unowned (Admit.pressure admit);
    unowned (Admit.depth admit);
    owned ~labels:breaker_labels "retry.breaker.trips"
      (Retry.Breaker.trips breaker);
    owned ~labels:breaker_labels "retry.breaker.rejected"
      (Retry.Breaker.rejected breaker);
    unowned
      (int_of_float
         (Retry.Breaker.state_value (Retry.Breaker.state breaker)));
    owned "recut.full" inc_st.Incremental.full_cuts;
    owned "recut.incremental" inc_st.Incremental.incrementals;
    owned "recut.subtrees" inc_st.Incremental.subtrees_resolved;
    unowned inc_st.Incremental.since_full;
    observed "point" mix.Wavesyn_aqp.Workload.points;
    observed "range" mix.Wavesyn_aqp.Workload.ranges;
    observed "selectivity" mix.Wavesyn_aqp.Workload.selectivities;
    observed "quantile" mix.Wavesyn_aqp.Workload.quantiles;
    unowned (Profiler.total profiler);
  ]

let prop_component_counts_neutral =
  QCheck.Test.make
    ~name:
      "registry-neutral counts: cache, admission, breaker, incremental, \
       profiler"
    ~count:40 (QCheck.int_bound 10_000)
    (neutral_counts component_counts)

(* A store under a one-strike breaker whose re-cut tiers time out, and
   whose journal appends and snapshot writes fail, each with
   probability 1/2 and no retry. *)
let supervisor_counts obs seed =
  with_store (fun dir ->
      let now = ref 0. in
      let breaker =
        Retry.Breaker.create ~threshold:1 ~cooldown_ms:5.
          ~clock:(fun () -> !now)
          ?obs ~name:"store" ()
      in
      let fault =
        Fault.create
          ~kinds:[ Fault.Expire_deadline; Fault.Io_flaky ]
          ~rate:0.5 ~seed ()
      in
      let cfg =
        Supervisor.config ~checkpoint_every:4 ~recut_every:2 ~sync:false ~dir
          ~n:16 ~budget:4 Metrics.Abs
      in
      let sup =
        match
          Supervisor.open_store ?obs ~fault ~breaker ~retry_attempts:1 cfg
        with
        | Ok s -> s
        | Error e -> Alcotest.fail (Wavesyn_robust.Validate.to_string e)
      in
      let rng = Prng.create ~seed in
      let ingest () =
        now := !now +. 1.;
        ignore
          (Supervisor.ingest sup ~i:(Prng.int rng 16)
             ~delta:(float_of_int (Prng.int rng 9 - 4)))
      in
      (* Run until the plan has degraded a re-cut, had one refused and
         failed a checkpoint. The stop depends only on counts, so both
         runs stop at the same update unless a count differs. *)
      let covered () =
        let st = Supervisor.stats sup in
        st.Supervisor.recuts_degraded > 0
        && st.Supervisor.recuts_rejected > 0
        && st.Supervisor.checkpoint_failures > 0
      in
      let k = ref 0 in
      while !k < 2_000 && not (covered ()) do
        ingest ();
        incr k
      done;
      for _ = 1 to 16 do
        ingest ()
      done;
      let st = Supervisor.stats sup in
      Supervisor.close sup;
      let breaker_labels = [ ("breaker", "store") ] in
      [
        owned "store.journal.appends" st.Supervisor.acked;
        owned "store.recut.served" st.Supervisor.recuts_served;
        owned "store.recut.degraded" st.Supervisor.recuts_degraded;
        owned "store.recut.rejected" st.Supervisor.recuts_rejected;
        owned "store.checkpoint.completed" st.Supervisor.checkpoints;
        owned "store.checkpoint.failed" st.Supervisor.checkpoint_failures;
        owned ~labels:breaker_labels "retry.breaker.trips"
          (Retry.Breaker.trips breaker);
        owned ~labels:breaker_labels "retry.breaker.rejected"
          (Retry.Breaker.rejected breaker);
        unowned st.Supervisor.seq;
        unowned st.Supervisor.updates;
        unowned (Option.value st.Supervisor.last_generation ~default:(-1));
        unowned
          (int_of_float (Retry.Breaker.state_value st.Supervisor.breaker));
      ])

let prop_supervisor_counts_neutral =
  QCheck.Test.make ~name:"registry-neutral counts: supervisor under faults"
    ~count:12 (QCheck.int_bound 10_000)
    (neutral_counts supervisor_counts ~covered:(fun counts ->
         let value name =
           (List.find (fun c -> c.cell = Some (name, [])) counts).value
         in
         value "store.recut.degraded" > 0
         && value "store.recut.rejected" > 0
         && value "store.checkpoint.failed" > 0))

(* Both breaker gauges encode a state as {!Retry.Breaker.state_value}.
   The breaker trips on a re-cut every better tier of which times out,
   fails its half-open probe the same way, reads half-open once its
   cooldown has passed, and closes on a probe that succeeds: a reopen
   of the store with no faults, sharing breaker and registry. *)
let test_breaker_gauges () =
  with_store (fun dir ->
      let reg = Registry.create () in
      let now = ref 0. in
      let breaker =
        Retry.Breaker.create ~threshold:1 ~cooldown_ms:10.
          ~clock:(fun () -> !now)
          ~obs:reg ~name:"store" ()
      in
      let cfg =
        Supervisor.config ~checkpoint_every:1_000 ~recut_every:1_000
          ~sync:false ~dir ~n:16 ~budget:4 Metrics.Abs
      in
      let open_store fault =
        match Supervisor.open_store ~obs:reg ~fault ~breaker cfg with
        | Ok s -> s
        | Error e -> Alcotest.fail (Wavesyn_robust.Validate.to_string e)
      in
      let both what state =
        let v = Retry.Breaker.state_value state in
        checkf (what ^ ": store.breaker.state") v
          (Metric.gauge_value (Registry.gauge reg "store.breaker.state"));
        checkf (what ^ ": retry.breaker.state") v
          (Metric.gauge_value
             (Registry.gauge reg ~labels:[ ("breaker", "store") ]
                "retry.breaker.state"))
      in
      let sup =
        open_store
          (Fault.create ~kinds:[ Fault.Expire_deadline ] ~rate:1.0 ~seed:3 ())
      in
      for i = 0 to 15 do
        ignore (Supervisor.ingest sup ~i ~delta:(float_of_int ((i * 7) mod 5)))
      done;
      both "closed at open" Retry.Breaker.Closed;
      ignore (Supervisor.recut sup);
      both "open after a trip" Retry.Breaker.Open;
      ignore (Supervisor.recut sup);
      both "open while cooling down" Retry.Breaker.Open;
      now := 10.;
      ignore (Supervisor.recut sup);
      both "open after a failed probe" Retry.Breaker.Open;
      checki "two trips" 2 (Retry.Breaker.trips breaker);
      checki "one rejection" 1
        (Supervisor.stats sup).Supervisor.recuts_rejected;
      Supervisor.close sup;
      now := 20.;
      let sup = open_store Fault.none in
      both "half-open once cooled down" Retry.Breaker.Half_open;
      (match Supervisor.recut sup with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "a fault-free probe must succeed");
      both "closed after a good probe" Retry.Breaker.Closed;
      Supervisor.close sup)

let () =
  Alcotest.run "wavesyn-obs"
    [
      ( "mclock",
        [ Alcotest.test_case "monotonic ms" `Quick test_mclock ] );
      ( "metric",
        [
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "histogram buckets" `Quick
            test_histogram_buckets;
          Alcotest.test_case "NaN hygiene" `Quick test_histogram_nan_hygiene;
          Alcotest.test_case "quantile interpolation" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "deterministic quantile bound" `Quick
            test_histogram_quantile_le;
        ] );
      ( "registry",
        [
          Alcotest.test_case "name and label validation" `Quick
            test_registry_names;
          Alcotest.test_case "idempotent lookup" `Quick
            test_registry_idempotent;
          Alcotest.test_case "collision rejection" `Quick
            test_registry_collisions;
          Alcotest.test_case "exposition goldens" `Quick test_exposition;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and re-raise" `Quick test_trace_nesting;
          Alcotest.test_case "ring buffer eviction" `Quick test_trace_ring;
        ] );
      ( "neutrality",
        [
          QCheck_alcotest.to_alcotest prop_ladder_obs_neutral;
          QCheck_alcotest.to_alcotest prop_stream_observer_neutral;
          Alcotest.test_case "observer reports path length" `Quick
            test_observer_reports_path_length;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
            prop_component_counts_neutral;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
            prop_supervisor_counts_neutral;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "metrics mirror stats" `Quick
            test_supervisor_metrics;
          Alcotest.test_case "breaker gauges share one encoding" `Quick
            test_breaker_gauges;
        ] );
    ]
