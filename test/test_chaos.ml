(* The durable store's fault-injection matrix, deterministic from fixed
   seeds (run via `dune runtest` or in isolation via `dune build @chaos`).

   The headline property under test: killing the serving process at ANY
   point and recovering yields coefficient state byte-identical to the
   acknowledged prefix of the uninterrupted run — a CRC-verified
   snapshot generation plus journal replay through the very same
   [Stream_synopsis.update] code path. The matrix crosses the kill
   property with every storage fault mode (torn write, bit flip, flaky
   I/O) and with deadline-expiry chaos on the re-cut path. *)

module Validate = Wavesyn_robust.Validate
module Fault = Wavesyn_robust.Fault
module Ladder = Wavesyn_robust.Ladder
module Retry = Wavesyn_robust.Retry
module Snapshot = Wavesyn_robust.Snapshot
module Journal = Wavesyn_robust.Journal
module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Engine = Wavesyn_aqp.Engine
module Prng = Wavesyn_util.Prng

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- harness --- *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wavesyn_chaos_%d_%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir dir 0o755;
    dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_store f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let gen_updates ~n ~m ~seed =
  let rng = Prng.create ~seed in
  Array.init m (fun _ ->
      (Prng.int rng n, float_of_int (Prng.int rng 41 - 20) /. 2.))

(* Canonical state fingerprint: two streams are byte-identical iff
   their encodings (hex floats, sorted coefficients) are equal. *)
let fingerprint ~seq stream = Snapshot.encode (Snapshot.of_stream ~seq stream)

(* The ground truth the store must reproduce: the first [k] updates
   applied directly, with no durability machinery in the way. *)
let reference ~n ups k =
  let s = Stream_synopsis.create ~n in
  Array.iteri
    (fun idx (i, delta) -> if idx < k then Stream_synopsis.update s ~i ~delta)
    ups;
  fingerprint ~seq:k s

let sup_fingerprint sup =
  fingerprint ~seq:(Supervisor.seq sup) (Supervisor.stream sup)

let cfg ?(checkpoint_every = 8) ?(recut_every = 1_000_000) ?keep dir ~n =
  Supervisor.config ~checkpoint_every ~recut_every ?keep ~sync:false ~dir ~n
    ~budget:4 Metrics.Abs

let must = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Validate.to_string e)

let ingest_all sup ups ~from ~until =
  for idx = from to until - 1 do
    let i, delta = ups.(idx) in
    ignore (must (Supervisor.ingest sup ~i ~delta))
  done

(* --- the headline property: kill at every point --- *)

let test_kill_at_every_point () =
  let n = 16 and m = 40 in
  let ups = gen_updates ~n ~m ~seed:42 in
  let full = reference ~n ups m in
  for k = 0 to m do
    with_store (fun dir ->
        let a = must (Supervisor.open_store (cfg dir ~n)) in
        ingest_all a ups ~from:0 ~until:k;
        Supervisor.crash a;
        (* Recovery must land exactly on the acknowledged prefix... *)
        let b = must (Supervisor.open_store (cfg dir ~n)) in
        checki (Printf.sprintf "kill@%d: sequence recovered" k) k
          (Supervisor.seq b);
        checks (Printf.sprintf "kill@%d: state is the acked prefix" k)
          (reference ~n ups k) (sup_fingerprint b);
        (* ... and the continued run must be indistinguishable from an
           uninterrupted one. *)
        ingest_all b ups ~from:k ~until:m;
        checks
          (Printf.sprintf "kill@%d: continuation matches uninterrupted run" k)
          full (sup_fingerprint b);
        Supervisor.close b;
        (* Read-only recovery agrees too. *)
        let r = must (Supervisor.recover ~dir) in
        checks
          (Printf.sprintf "kill@%d: read-only recovery agrees" k)
          full
          (fingerprint ~seq:r.Supervisor.r_seq r.Supervisor.r_stream))
  done

(* --- torn writes: the simulated kill can also strike mid-append and
   mid-checkpoint; unacknowledged updates are resubmitted --- *)

let test_torn_write_kills () =
  let n = 32 and m = 48 in
  let total_kills = ref 0 in
  List.iter
    (fun seed ->
      let ups = gen_updates ~n ~m ~seed in
      with_store (fun dir ->
          let fault =
            Fault.create ~kinds:[ Fault.Torn_write ] ~rate:0.15 ~seed ()
          in
          let reopen () = must (Supervisor.open_store ~fault (cfg dir ~n)) in
          let sup = ref (reopen ()) in
          let idx = ref 0 in
          let kills = ref 0 in
          while !idx < m do
            let i, delta = ups.(!idx) in
            match Supervisor.ingest !sup ~i ~delta with
            | Ok _ -> incr idx
            | Error e -> Alcotest.fail (Validate.to_string e)
            | exception Fault.Injected Fault.Torn_write ->
                (* The process "died" mid-write. Recover, and trust the
                   store — not our loop counter — about what survived:
                   a torn journal append lost the update (resubmit it),
                   a torn checkpoint lost nothing. *)
                incr kills;
                if !kills > 10 * m then
                  Alcotest.fail "kill storm: not making progress";
                Supervisor.crash !sup;
                sup := reopen ();
                idx := Supervisor.seq !sup
          done;
          total_kills := !total_kills + !kills;
          checks
            (Printf.sprintf "seed %d: torn-write run converges bit-exactly"
               seed)
            (reference ~n ups m) (sup_fingerprint !sup);
          checki
            (Printf.sprintf "seed %d: every update acknowledged once" seed)
            m
            (Stream_synopsis.updates_seen (Supervisor.stream !sup));
          Supervisor.close !sup))
    [ 3; 17; 99 ];
  check "the matrix actually injected kills" true (!total_kills > 0)

(* --- bit flips: silent corruption is caught by CRC on the read path --- *)

let test_bit_flip_on_journal () =
  let n = 16 and m = 40 in
  let ups = gen_updates ~n ~m ~seed:7 in
  with_store (fun dir ->
      (* No checkpoints: the journal alone carries the state. *)
      let sup =
        must (Supervisor.open_store (cfg ~checkpoint_every:1_000_000 dir ~n))
      in
      ingest_all sup ups ~from:0 ~until:m;
      Supervisor.close sup;
      (* Flip one bit inside record 25 of the WAL. *)
      let path = Journal.path ~dir in
      let ic = open_in_bin path in
      let bytes =
        Bytes.of_string (really_input_string ic (in_channel_length ic))
      in
      close_in ic;
      let pos = ref 0 in
      for _ = 1 to 24 do
        pos := Bytes.index_from bytes !pos '\n' + 1
      done;
      Bytes.set bytes !pos
        (Char.chr (Char.code (Bytes.get bytes !pos) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc;
      (* Replay stops at the flipped record: the durable state is the
         24-update prefix, reported as a truncation, never an exception. *)
      let r = must (Supervisor.recover ~dir) in
      check "truncation reported" true r.Supervisor.r_recovery.Supervisor.truncated;
      checki "durable prefix ends before the flipped record" 24
        r.Supervisor.r_seq;
      checks "recovered state is exactly that prefix" (reference ~n ups 24)
        (fingerprint ~seq:r.Supervisor.r_seq r.Supervisor.r_stream);
      (* Re-opening for writing repairs the WAL and serving resumes. *)
      let sup = must (Supervisor.open_store (cfg ~checkpoint_every:1_000_000 dir ~n)) in
      checki "writer resumes from the durable prefix" 24 (Supervisor.seq sup);
      ingest_all sup ups ~from:24 ~until:m;
      checks "resumed run converges" (reference ~n ups m) (sup_fingerprint sup);
      Supervisor.close sup)

let test_bit_flip_on_snapshot_falls_back () =
  let n = 16 and m = 40 in
  let ups = gen_updates ~n ~m ~seed:11 in
  with_store (fun dir ->
      let sup = must (Supervisor.open_store (cfg dir ~n)) in
      ingest_all sup ups ~from:0 ~until:m;
      Supervisor.close sup;
      (* Checkpoints ran at seq 8..40 → generations 1..5, keep 3. *)
      let gens = must (Snapshot.list ~dir) in
      check "three generations retained" true (gens = [ 5; 4; 3 ]);
      let flip gen =
        let path = Snapshot.file_of_generation dir gen in
        let ic = open_in_bin path in
        let bytes =
          Bytes.of_string (really_input_string ic (in_channel_length ic))
        in
        close_in ic;
        Bytes.set bytes 30 (Char.chr (Char.code (Bytes.get bytes 30) lxor 1));
        let oc = open_out_bin path in
        output_bytes oc bytes;
        close_out oc
      in
      flip 5;
      let r = must (Supervisor.recover ~dir) in
      check "newest generation rejected by CRC" true
        (r.Supervisor.r_recovery.Supervisor.generation = Some 4
        && r.Supervisor.r_recovery.Supervisor.corrupt_generations = [ 5 ]);
      checks "fallback + journal replay is still bit-exact"
        (reference ~n ups m)
        (fingerprint ~seq:r.Supervisor.r_seq r.Supervisor.r_stream);
      (* A second rotten generation falls back one more step; the
         rotated journal still reaches back to the oldest retained one. *)
      flip 4;
      let r = must (Supervisor.recover ~dir) in
      check "both corrupt generations reported" true
        (r.Supervisor.r_recovery.Supervisor.generation = Some 3
        && r.Supervisor.r_recovery.Supervisor.corrupt_generations = [ 5; 4 ]);
      checki "longer replay distance" 16
        r.Supervisor.r_recovery.Supervisor.replayed;
      checks "still bit-exact from the oldest generation"
        (reference ~n ups m)
        (fingerprint ~seq:r.Supervisor.r_seq r.Supervisor.r_stream))

(* --- flaky I/O: transient failures are absorbed by seeded retries --- *)

let test_flaky_io_absorbed () =
  let n = 16 and m = 40 in
  let ups = gen_updates ~n ~m ~seed:23 in
  with_store (fun dir ->
      let fault = Fault.create ~kinds:[ Fault.Io_flaky ] ~rate:0.2 ~seed:23 () in
      let sup =
        must
          (Supervisor.open_store ~fault ~retry_attempts:6
             ~retry:(Retry.policy ~seed:23 ())
             (cfg dir ~n))
      in
      (* Every ingest must come back Ok: Error would mean an update was
         dropped, and an exception would mean a retry leaked. *)
      ingest_all sup ups ~from:0 ~until:m;
      let st = Supervisor.stats sup in
      checki "all updates acknowledged" m st.Supervisor.acked;
      checki "no checkpoint gave up" 0 st.Supervisor.checkpoint_failures;
      checks "flaky run is bit-identical to a clean one" (reference ~n ups m)
        (sup_fingerprint sup);
      Supervisor.close sup;
      let r = must (Supervisor.recover ~dir) in
      checks "and recovers bit-identically" (reference ~n ups m)
        (fingerprint ~seq:r.Supervisor.r_seq r.Supervisor.r_stream))

(* --- deadline expiry on the re-cut path: the breaker spaces retries,
   serving and durability are unaffected --- *)

let test_deadline_expiry_trips_breaker () =
  let n = 16 and m = 40 in
  let ups = gen_updates ~n ~m ~seed:31 in
  with_store (fun dir ->
      let fault =
        Fault.create ~kinds:[ Fault.Expire_deadline ] ~rate:1.0 ~seed:31 ()
      in
      (* Frozen clock: the cooldown never elapses, so the breaker stays
         open once tripped and the rejection path is deterministic. *)
      let breaker =
        Retry.Breaker.create ~threshold:2 ~cooldown_ms:1000.
          ~clock:(fun () -> 0.)
          ()
      in
      let sup =
        must
          (Supervisor.open_store ~fault ~breaker
             (cfg ~recut_every:4 ~checkpoint_every:1_000_000 dir ~n))
      in
      ingest_all sup ups ~from:0 ~until:m;
      let st = Supervisor.stats sup in
      (* Re-cut cadence fires at seq 4, 8, ..., 40: ten times. The
         first two degrade to the greedy floor and trip the breaker;
         the remaining eight are rejected without running. *)
      checki "all updates acknowledged despite recut chaos" m
        st.Supervisor.acked;
      checki "degraded recuts until the threshold" 2
        st.Supervisor.recuts_degraded;
      checki "breaker rejections after tripping" 8
        st.Supervisor.recuts_rejected;
      check "breaker open" true (st.Supervisor.breaker = Retry.Breaker.Open);
      (* Even degraded, what was served is sound and present. *)
      (match Supervisor.last_served sup with
      | Some served ->
          check "floor tier served" true
            (served.Ladder.tier = Ladder.Greedy_maxerr);
          check "its guarantee is finite" true
            (Float.is_finite served.Ladder.max_err)
      | None -> Alcotest.fail "a recut must have served before tripping");
      checks "durability untouched by recut chaos" (reference ~n ups m)
        (sup_fingerprint sup);
      Supervisor.close sup)

(* --- determinism of the whole matrix: same seeds, same trace --- *)

let test_matrix_is_deterministic () =
  let n = 16 and m = 24 in
  let ups = gen_updates ~n ~m ~seed:5 in
  let run () =
    with_store (fun dir ->
        let fault =
          Fault.create ~kinds:[ Fault.Io_flaky ] ~rate:0.3 ~seed:5 ()
        in
        let sup =
          must
            (Supervisor.open_store ~fault ~retry_attempts:8
               ~retry:(Retry.policy ~seed:5 ())
               (cfg dir ~n))
        in
        ingest_all sup ups ~from:0 ~until:m;
        let st = Supervisor.stats sup in
        let fp = sup_fingerprint sup in
        Supervisor.close sup;
        (fp, st.Supervisor.checkpoints, st.Supervisor.checkpoint_failures))
  in
  let fp1, cp1, cf1 = run () in
  let fp2, cp2, cf2 = run () in
  checks "same seeds produce the same state" fp1 fp2;
  checki "same checkpoint count" cp1 cp2;
  checki "same failure count" cf1 cf2

(* --- the engine's recovery over a supervised store --- *)

let test_engine_store_roundtrip () =
  let n = 32 and m = 30 in
  let ups = gen_updates ~n ~m ~seed:13 in
  with_store (fun dir ->
      let sup = must (Supervisor.open_store (cfg ~recut_every:16 dir ~n)) in
      Array.iter
        (fun (i, delta) -> ignore (must (Supervisor.ingest sup ~i ~delta)))
        ups;
      (match Supervisor.last_served sup with
      | Some served ->
          check "served guarantee is finite" true
            (Float.is_finite served.Ladder.max_err)
      | None -> Alcotest.fail "the store must have served a re-cut");
      ignore (must (Supervisor.checkpoint sup));
      Supervisor.close sup;
      match Engine.recover ~dir () with
      | Error e -> Alcotest.fail (Validate.to_string e)
      | Ok r ->
          checki "every update recovered" m r.Engine.updates;
          checki "sequence recovered" m r.Engine.seq;
          check "recovered guarantee is a fresh re-measure" true
            (Float.equal r.Engine.guarantee
               (Engine.guarantee r.Engine.engine Metrics.Abs)))


(* --- the write path's cost and its shipped twin --- *)

(* Minor words per [ingest] on updates that hit no cadence, with
   [sync:false], 200 updates at n=16: the record's text, the retry
   closure and the result, plus the section's timing with [obs] (an
   untraced section builds no closure). The pins are the exact counts,
   so any allocation added to the write path fails them. *)
let ingest_words ?obs () =
  with_store (fun dir ->
      let sup =
        must
          (Supervisor.open_store ?obs
             (cfg ~checkpoint_every:1_000_000 dir ~n:16))
      in
      let ingest k = ignore (Supervisor.ingest sup ~i:(k land 15) ~delta:0.5) in
      ingest 0;
      let rounds = 200 in
      let w0 = Gc.minor_words () in
      for k = 1 to rounds do
        ingest k
      done;
      let words = (Gc.minor_words () -. w0) /. float_of_int rounds in
      Supervisor.close sup;
      words)

let test_ingest_allocation () =
  let pinned name words limit =
    check (Printf.sprintf "%s: %.2f words per ingest <= %.2f" name words limit)
      true (words <= limit)
  in
  pinned "bare" (ingest_words ()) 149.11;
  pinned "obs" (ingest_words ~obs:(Wavesyn_obs.Registry.create ()) ()) 158.11

(* A primary's updates, shipped and applied on a follower, leave the
   same store behind: WAL bytes, sequence, coefficient bits, and the
   journal and checkpoint telemetry. Both stores write a generation at
   seq 0 first, so each later rotation keeps the whole journal (it
   reaches back to the oldest generation) and one batch can carry
   every record across two checkpoints. *)
let test_shipped_matches_primary () =
  let n = 16 and k = 20 in
  let ups = gen_updates ~n ~m:k ~seed:29 in
  with_store (fun dir_p ->
      with_store (fun dir_f ->
          let open_side role dir =
            let reg = Wavesyn_obs.Registry.create () in
            let config =
              Supervisor.config ~checkpoint_every:8 ~recut_every:1_000_000
                ~sync:true ~dir ~n ~budget:4 Metrics.Abs
            in
            let sup = must (Supervisor.open_store ~obs:reg ~role config) in
            ignore (must (Supervisor.checkpoint sup));
            (sup, reg)
          in
          let p, reg_p = open_side Supervisor.Primary dir_p in
          let f, reg_f = open_side Supervisor.Follower dir_f in
          ingest_all p ups ~from:0 ~until:k;
          let batch =
            must (Journal.ship ~dir:dir_p ~since:0 ~seq:(Supervisor.seq p)
                    ~max:k ())
          in
          checki "one batch carries every record" k
            (List.length batch.Journal.b_records);
          checki "follower lands on the primary's seq" k
            (must (Supervisor.apply_shipped f batch));
          Supervisor.close p;
          Supervisor.close f;
          let wal dir = must (Validate.read_whole (Journal.path ~dir)) in
          checks "WAL bytes" (wal dir_p) (wal dir_f);
          checks "coefficient bits" (sup_fingerprint p) (sup_fingerprint f);
          let module R = Wavesyn_obs.Registry in
          let module M = Wavesyn_obs.Metric in
          List.iter
            (fun name ->
              checki name
                (M.counter_value (R.counter reg_p name))
                (M.counter_value (R.counter reg_f name)))
            [
              "store.journal.appends"; "store.journal.fsyncs";
              "store.journal.rotations"; "store.checkpoint.completed";
              "store.checkpoint.failed";
            ];
          checki "store.checkpoint.ms count"
            (M.hist_count (R.histogram reg_p "store.checkpoint.ms"))
            (M.hist_count (R.histogram reg_f "store.checkpoint.ms"));
          check "store.checkpoint.generation" true
            (Float.equal
               (M.gauge_value (R.gauge reg_p "store.checkpoint.generation"))
               (M.gauge_value (R.gauge reg_f "store.checkpoint.generation")));
          checki "three checkpoints each" 3
            (M.counter_value (R.counter reg_f "store.checkpoint.completed"))))

(* A checkpoint compacts the journal through the oldest retained
   generation's seq, which the store keeps as it writes generations.
   Seeded schedules of torn writes, bit flips and flaky I/O, with a
   crash and reopen every 29 updates and after every torn write, check
   each successful checkpoint's [keep_after] against the value read
   back from disk: the oldest listed generation's decoded seq, or 0
   when it does not decode. *)
let test_keep_after_matches_disk () =
  let n = 16 and steps = 240 in
  let decoded_keep_after dir =
    match Snapshot.list ~dir with
    | Error _ | Ok [] -> 0
    | Ok gens -> (
        let oldest = List.hd (List.rev gens) in
        match Snapshot.decode_file (Snapshot.file_of_generation dir oldest) with
        | Ok s -> s.Snapshot.seq
        | Error _ -> 0)
  in
  let compared = ref 0 and unverified = ref 0 and kills = ref 0 in
  List.iteri
    (fun k seed ->
      let ups = gen_updates ~n ~m:steps ~seed in
      with_store (fun dir ->
          let fault =
            Fault.create
              ~kinds:[ Fault.Bit_flip; Fault.Torn_write; Fault.Io_flaky ]
              ~rate:0.1 ~seed ()
          in
          (* Flaky I/O can fail an open or an append after its retries;
             the open is tried again, the update is simply not
             acknowledged. *)
          let rec reopen tries =
            match
              Supervisor.open_store ~fault
                (cfg ~checkpoint_every:4 ~keep:(1 + (k mod 3)) dir ~n)
            with
            | Ok sup -> sup
            | Error _ when tries > 0 -> reopen (tries - 1)
            | Error e -> Alcotest.fail (Validate.to_string e)
          in
          let reopen () = reopen 8 in
          let sup = ref (reopen ()) in
          for step = 0 to steps - 1 do
            let i, delta = ups.(step) in
            let before = (Supervisor.stats !sup).Supervisor.checkpoints in
            (match Supervisor.ingest !sup ~i ~delta with
            | Ok _ ->
                if (Supervisor.stats !sup).Supervisor.checkpoints > before
                then begin
                  incr compared;
                  let want = decoded_keep_after dir in
                  if want = 0 then incr unverified;
                  checki
                    (Printf.sprintf "seed %d step %d: keep_after" seed step)
                    want
                    (Supervisor.keep_after !sup)
                end
            | Error _ -> ()
            | exception Fault.Injected Fault.Torn_write ->
                incr kills;
                Supervisor.crash !sup;
                sup := reopen ());
            if step mod 29 = 28 then begin
              Supervisor.crash !sup;
              sup := reopen ()
            end
          done;
          Supervisor.close !sup))
    [ 5; 13; 31; 77; 101; 4242 ];
  check
    (Printf.sprintf "%d checkpoints compared, %d keeping the whole WAL, %d kills"
       !compared !unverified !kills)
    true
    (!compared > 50 && !unverified > 0 && !unverified < !compared && !kills > 0)

let () =
  Alcotest.run "chaos-store"
    [
      ( "kill-anywhere",
        [
          Alcotest.test_case "kill at every update boundary" `Quick
            test_kill_at_every_point;
          Alcotest.test_case "torn-write kills mid-append/mid-checkpoint"
            `Quick test_torn_write_kills;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "bit flip in the journal" `Quick
            test_bit_flip_on_journal;
          Alcotest.test_case "bit flip in snapshot generations" `Quick
            test_bit_flip_on_snapshot_falls_back;
          Alcotest.test_case "checkpoint keep_after = decoded oldest seq"
            `Quick test_keep_after_matches_disk;
        ] );
      ( "transients",
        [
          Alcotest.test_case "flaky I/O absorbed by retries" `Quick
            test_flaky_io_absorbed;
          Alcotest.test_case "deadline expiry trips the recut breaker" `Quick
            test_deadline_expiry_trips_breaker;
          Alcotest.test_case "matrix deterministic from seeds" `Quick
            test_matrix_is_deterministic;
        ] );
      ( "engine",
        [
          Alcotest.test_case "durable store roundtrip" `Quick
            test_engine_store_roundtrip;
        ] );
      ( "write-path",
        [
          Alcotest.test_case "ingest allocation pinned" `Quick
            test_ingest_allocation;
          Alcotest.test_case "shipped batch matches its primary" `Quick
            test_shipped_matches_primary;
        ] );
    ]
