(* Live-update chaos suite: crash-consistent streaming re-thresholding
   under write traffic.

   The headline proof: a live server killed mid-update-storm recovers
   (journal-before-apply, round-atomic staging) to a store from which a
   restarted server — after the client resends its unanswered write
   frames — serves loadgen read transcripts byte-identical to a run
   with no failure at all, at pool sizes 1 and 4; the same identity
   holds through a warm-standby failover promotion, and through a kill
   landing between the store promotion and its HANDOFF-ACK.

   Run via `dune runtest` or in isolation via `dune build
   @chaos-update`. A watchdog alarm fails the whole suite rather than
   letting a hung socket test wedge the runner. *)

module Validate = Wavesyn_robust.Validate
module Journal = Wavesyn_robust.Journal
module Snapshot = Wavesyn_robust.Snapshot
module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Prng = Wavesyn_util.Prng
module Pool = Wavesyn_par.Pool
module Wire = Wavesyn_server.Wire
module Server = Wavesyn_server.Server
module Client = Wavesyn_server.Client
module Failover = Wavesyn_server.Failover
module Replica = Wavesyn_server.Replica
module Loadgen = Wavesyn_server.Loadgen
module Registry = Wavesyn_obs.Registry

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Watchdog: a hung socket test must fail the suite, not wedge it. *)
let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline
           "chaos-update watchdog: a socket test hung past the deadline";
         exit 124));
  ignore (Unix.alarm 300)

(* --- harness --- *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wavesyn_chaos_update_%d_%d" (Unix.getpid ()) !counter)
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

let sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "%s/wavesyn-chaos-update-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !counter

let must = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Validate.to_string e)

(* Read one integer counter out of a rendered metrics table; [name]
   matches with or without a label set. *)
let counter_value table name =
  let value_of row =
    match List.filter (fun tok -> tok <> "") (String.split_on_char ' ' row) with
    | _kind :: field :: value :: _
      when field = name
           || (String.length field > String.length name
              && String.sub field 0 (String.length name + 1) = name ^ "{") ->
        int_of_string_opt value
    | _ -> None
  in
  match List.filter_map value_of (String.split_on_char '\n' table) with
  | v :: _ -> v
  | [] -> Alcotest.fail (name ^ " missing from the metrics table")

(* Canonical state fingerprint: two stores hold the same acknowledged
   history iff the encodings of their coefficient states are equal. *)
let fingerprint sup =
  Snapshot.encode
    (Snapshot.of_stream ~seq:(Supervisor.seq sup) (Supervisor.stream sup))

(* A primary store with [updates] seeded point updates acknowledged.
   Deterministic: two calls with the same arguments build two stores
   with byte-identical journals, which is how the crash runs get an
   initial state equal to their failure-free reference. *)
let build_store ~dir ~n ~updates ~seed () =
  let scfg =
    Supervisor.config ~checkpoint_every:1_000_000 ~recut_every:1_000_000
      ~sync:false ~dir ~n ~budget:8 Metrics.Abs
  in
  let sup = must (Supervisor.open_store scfg) in
  let rng = Prng.create ~seed in
  for _ = 1 to updates do
    ignore
      (must
         (Supervisor.ingest sup ~i:(Prng.int rng n)
            ~delta:(float_of_int (Prng.int rng 21 - 10) /. 4.)))
  done;
  Supervisor.close sup

(* Recover and reopen a store for live serving, exactly as
   `server --listen --store` wires it: the supervisor journals writes
   (its own re-cut cadence disabled — the server's incremental solver
   owns the synopsis), and the recovered data seeds the server. *)
let open_live dir =
  let r = must (Supervisor.recover ~dir) in
  let scfg =
    {
      r.Supervisor.r_config with
      Supervisor.checkpoint_every = 1_000_000;
      recut_every = 1_000_000;
      sync = false;
    }
  in
  let sup = must (Supervisor.open_store scfg) in
  let data = Stream_synopsis.current_data (Supervisor.stream sup) in
  let ship =
    {
      Server.ship_dir = dir;
      ship_seq = Supervisor.seq sup;
      ship_manifest = Supervisor.manifest_text scfg;
    }
  in
  (sup, data, ship)

let spawn_server server = Domain.spawn (fun () -> Server.run server)

let join_server runner =
  match Domain.join runner with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("server run: " ^ Validate.to_string e)

let connect ?timeout_ms path =
  match Client.connect ~wait_ms:5000. ?timeout_ms path with
  | Ok c -> c
  | Error e -> Alcotest.fail (Validate.to_string e)

let shutdown_via path =
  let c = connect path in
  ignore (Client.request_one c Wire.Shutdown);
  Client.close c

(* --- the deterministic write/read schedule --- *)

(* The write schedule is a fixed list of frames — single UPDATEs and
   INGEST storms — drawn from a seeded Prng, so the crash runs and
   their references send byte-identical traffic. *)
let write_frames ~seed ~n ~frames =
  let rng = Prng.create ~seed in
  List.init frames (fun _ ->
      if Prng.int rng 3 = 0 then
        Wire.Ingest
          (List.init
             (2 + Prng.int rng 3)
             (fun _ -> (Prng.int rng n, Prng.float rng 2.0 -. 1.0)))
      else Wire.Update { i = Prng.int rng n; delta = Prng.float rng 2.0 -. 1.0 })

(* Send the write frames one at a time, tracking acks frame by frame.
   Returns [(acked, unsent)]: the highest ACKED sequence seen and the
   frames that were not acknowledged (the one the crash left
   unanswered plus everything after it). On a healthy server [unsent]
   is empty. *)
let send_writes rpc frames =
  let rec go acked = function
    | [] -> (acked, [])
    | frame :: rest -> (
        match rpc frame with
        | Ok [ Wire.Acked { seq } ] -> go seq rest
        | Ok other ->
            Alcotest.fail
              (Printf.sprintf "write frame answered oddly: %s"
                 (String.concat "; " (List.map Wire.describe_reply other)))
        | Error _ -> (acked, frame :: rest))
  in
  go 0 frames

(* The read phase: a seeded loadgen schedule (reads only), returning
   the transcript for byte comparison. *)
let read_storm ~seed ~requests ~batch ~n rpc =
  let buf = Buffer.create 4096 in
  let summary =
    must
      (Loadgen.run ~rpc ~seed ~requests ~batch ~n ~mix:Loadgen.default_mix
         ~out:(Buffer.add_string buf) ())
  in
  (Buffer.contents buf, summary)

(* --- failure-free write/read round-trip (the reference machinery,
   and the exactness checks that only make sense on a live wire) --- *)

let test_live_write_read () =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  build_store ~dir ~n:32 ~updates:10 ~seed:3 ();
  let sup, data, ship = open_live dir in
  Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
  let path = sock_path () in
  let server =
    Server.create
      (Server.config ~budget:8 ~ship ~role:"primary" ~store:sup
         ~recut_every:4 ~path data)
  in
  let runner = spawn_server server in
  Fun.protect ~finally:(fun () -> shutdown_via path; join_server runner)
  @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* Single UPDATE: journaled, acked with its sequence. *)
  (match Client.request_one c (Wire.Update { i = 3; delta = 0.5 }) with
  | Ok (Wire.Acked { seq }) -> checki "first update acked" 11 seq
  | Ok r -> Alcotest.fail ("update answered: " ^ Wire.describe_reply r)
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* A batch mixing writes and reads reads its own writes: the round
     applies every staged write before any read evaluates. *)
  (match
     Client.request c
       (Wire.Batch [ Wire.Update { i = 3; delta = 0.25 }; Wire.Point 3 ])
   with
  | Ok [ Wire.Acked { seq }; Wire.Value _ ] -> checki "batch write acked" 12 seq
  | Ok rs ->
      Alcotest.fail
        ("batch answered: "
        ^ String.concat "; " (List.map Wire.describe_reply rs))
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* INGEST storm: atomic, acked with the last sequence. *)
  (match
     Client.request_one c (Wire.Ingest [ (2, 0.5); (7, -0.25); (4, 1.5) ])
   with
  | Ok (Wire.Acked { seq }) -> checki "storm acked last seq" 15 seq
  | Ok r -> Alcotest.fail ("storm answered: " ^ Wire.describe_reply r)
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* Validation: out-of-domain rejected as a structured error, nothing
     journaled; a storm with one bad delta rejects atomically. *)
  (match Client.request_one c (Wire.Update { i = 99; delta = 1.0 }) with
  | Ok (Wire.Error { code = Wire.Out_of_range; _ }) -> ()
  | Ok r -> Alcotest.fail ("bad update answered: " ^ Wire.describe_reply r)
  | Error e -> Alcotest.fail (Validate.to_string e));
  (match
     Client.request_one c (Wire.Ingest [ (1, 0.5); (99, 1.0); (2, 0.5) ])
   with
  | Ok (Wire.Error { code = Wire.Out_of_range; _ }) -> ()
  | Ok r -> Alcotest.fail ("bad storm answered: " ^ Wire.describe_reply r)
  | Error e -> Alcotest.fail (Validate.to_string e));
  checki "rejections journaled nothing" 15 (Supervisor.seq sup);
  (* The served bound is sound: every point read errs by at most the
     server's stated bound against the store's true current data. *)
  let true_data = Stream_synopsis.current_data (Supervisor.stream sup) in
  let bound = (Server.stats server).Server.bound in
  check "a live server states a positive bound" true (bound >= 0.);
  for i = 0 to Array.length true_data - 1 do
    match Client.request_one c (Wire.Point i) with
    | Ok (Wire.Value v) ->
        if Float.abs (v -. true_data.(i)) > bound +. 1e-9 then
          Alcotest.fail
            (Printf.sprintf "point %d: |%g - %g| > stated bound %g" i v
               true_data.(i) bound)
    | Ok r -> Alcotest.fail ("point answered: " ^ Wire.describe_reply r)
    | Error e -> Alcotest.fail (Validate.to_string e)
  done;
  (* recut_every = 4 with 5 applied updates: the cadenced full re-cut
     fired on the write path (on top of the initial cut), and at least
     one earlier round refreshed incrementally. *)
  let table = Registry.render_table (Server.registry server) in
  check "cadenced full re-cut fired" true (counter_value table "recut.full" >= 2);
  check "incremental refresh fired" true
    (counter_value table "recut.incremental" >= 1);
  checki "every applied update counted" 5 (Server.stats server).Server.updates

(* A read-only server (no store) refuses writes in-band. *)
let test_read_only_refuses_writes () =
  let path = sock_path () in
  let rng = Prng.create ~seed:5 in
  let data = Array.init 32 (fun _ -> Prng.float rng 50.) in
  let server = Server.create (Server.config ~budget:8 ~path data) in
  let runner = spawn_server server in
  Fun.protect ~finally:(fun () -> shutdown_via path; join_server runner)
  @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match Client.request_one c (Wire.Update { i = 1; delta = 1.0 }) with
  | Ok (Wire.Error { code = Wire.Unanswerable; _ }) -> ()
  | Ok r -> Alcotest.fail ("read-only answered: " ^ Wire.describe_reply r)
  | Error e -> Alcotest.fail (Validate.to_string e)

(* --- the headline: crash mid-storm, whole round lost, resend,
   byte-identical reads --- *)

(* Run the full schedule (writes then reads) against a healthy live
   server over [dir]; returns the read transcript and the final store
   fingerprint. *)
let reference_run ~dir ~domains ~recut_every ~wseed ~wframes ~rseed ~requests
    ~batch =
  let sup, data, ship = open_live dir in
  Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
  let n = Array.length data in
  let path = sock_path () in
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let server =
    Server.create ~pool
      (Server.config ~budget:8 ~queue_bound:64 ~ship ~role:"primary"
         ~store:sup ~recut_every ~path data)
  in
  let runner = spawn_server server in
  Fun.protect ~finally:(fun () -> shutdown_via path; join_server runner)
  @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let acked, unsent =
    send_writes (Client.request c) (write_frames ~seed:wseed ~n ~frames:wframes)
  in
  check "failure-free run acks every write" true (unsent = []);
  checki "failure-free run acks in sequence" acked (Supervisor.seq sup);
  let transcript, _ = read_storm ~seed:rseed ~requests ~batch ~n (Client.request c) in
  (transcript, fingerprint sup)

(* Kill the primary mid-storm ([crash_after] counts request frames),
   recover its store, restart, resend the unacknowledged frames, read.
   Asserts the acked prefix survived and nothing unacked leaked. *)
let crash_recover_run ~dir ~domains ~recut_every ~crash_after ~wseed ~wframes
    ~rseed ~requests ~batch =
  let sup, data, ship = open_live dir in
  let n = Array.length data in
  let seq0 = Supervisor.seq sup in
  let path = sock_path () in
  let pool = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let server =
    Server.create ~pool
      (Server.config ~budget:8 ~queue_bound:64 ~ship ~role:"primary"
         ~store:sup ~recut_every ~crash_after ~path data)
  in
  let runner = spawn_server server in
  let c = connect path in
  let frames = write_frames ~seed:wseed ~n ~frames:wframes in
  let acked, unsent = send_writes (Client.request c) frames in
  Client.close c;
  join_server runner;
  check "primary stopped at the simulated kill" true (Server.crashed server);
  check "the kill left frames unacknowledged" true (unsent <> []);
  (* Simulated process death: drop the store without flushing. *)
  Supervisor.crash sup;
  (* Recovery holds exactly the acked prefix: the crashed round staged
     its writes but journaled nothing, so the unanswered frame (and
     everything after it) is simply absent — not partially applied. *)
  let r = must (Supervisor.recover ~dir) in
  checki "recovery = the acked prefix, nothing more" (Stdlib.max acked seq0)
    r.Supervisor.r_seq;
  (* Restart over the recovered store; the client resends every frame
     it holds no ack for — exactly-once lands on the at-most-once
     journal. *)
  let sup2, data2, ship2 = open_live dir in
  Fun.protect ~finally:(fun () -> Supervisor.close sup2) @@ fun () ->
  let path2 = sock_path () in
  let server2 =
    Server.create
      (Server.config ~budget:8 ~queue_bound:64 ~ship:ship2 ~role:"primary"
         ~store:sup2 ~recut_every ~path:path2 data2)
  in
  let runner2 = spawn_server server2 in
  Fun.protect ~finally:(fun () -> shutdown_via path2; join_server runner2)
  @@ fun () ->
  let c2 = connect path2 in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  let _, still_unsent = send_writes (Client.request c2) unsent in
  check "resend completes" true (still_unsent = []);
  let transcript, _ =
    read_storm ~seed:rseed ~requests ~batch ~n (Client.request c2)
  in
  (transcript, fingerprint sup2)

let test_crash_recover_byte_identity () =
  (* The kill lands on the very first write frame: the whole storm is
     unanswered, recovery restores the pre-storm state, and the resend
     replays the entire schedule — so the restarted server's
     incremental path (initial full cut + per-round refreshes) walks
     exactly the reference's path. The default-style cadence (8) fires
     full re-cuts mid-schedule in both runs at the same write counts. *)
  let wseed = 11 and wframes = 12 and rseed = 7 and requests = 32 and batch = 4 in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf " (pool %d)" domains in
      let dir_ref = temp_dir () and dir_crash = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir_ref; rm_rf dir_crash)
      @@ fun () ->
      build_store ~dir:dir_ref ~n:64 ~updates:16 ~seed:6 ();
      build_store ~dir:dir_crash ~n:64 ~updates:16 ~seed:6 ();
      let reference, ref_state =
        reference_run ~dir:dir_ref ~domains ~recut_every:8 ~wseed ~wframes
          ~rseed ~requests ~batch
      in
      let transcript, state =
        crash_recover_run ~dir:dir_crash ~domains ~recut_every:8
          ~crash_after:1 ~wseed ~wframes ~rseed ~requests ~batch
      in
      checks ("store state byte-identical after recovery" ^ tag) ref_state state;
      checks ("read transcript byte-identical after recovery" ^ tag) reference
        transcript)
    [ 1; 4 ]

let test_crash_mid_schedule_acked_prefix () =
  (* The kill lands mid-schedule with acked writes behind it. With a
     per-round full re-cut cadence the serving synopsis is a pure
     function of the store state, so recovery at {e any} frame
     boundary is transcript-invisible — and the acked-prefix assertion
     inside [crash_recover_run] pins the durability half of the
     claim. *)
  let wseed = 13 and wframes = 10 and rseed = 9 and requests = 24 and batch = 3 in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf " (pool %d)" domains in
      let dir_ref = temp_dir () and dir_crash = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir_ref; rm_rf dir_crash)
      @@ fun () ->
      build_store ~dir:dir_ref ~n:64 ~updates:16 ~seed:8 ();
      build_store ~dir:dir_crash ~n:64 ~updates:16 ~seed:8 ();
      let reference, ref_state =
        reference_run ~dir:dir_ref ~domains ~recut_every:1 ~wseed ~wframes
          ~rseed ~requests ~batch
      in
      let transcript, state =
        crash_recover_run ~dir:dir_crash ~domains ~recut_every:1
          ~crash_after:6 ~wseed ~wframes ~rseed ~requests ~batch
      in
      checks ("store state byte-identical after recovery" ^ tag) ref_state state;
      checks ("read transcript byte-identical after recovery" ^ tag) reference
        transcript)
    [ 1; 4 ]

(* --- failover: the storm survives a promotion --- *)

(* Catch a bootstrapped standby store up from the dead primary's
   journal on disk, then promote it. This is the on_handoff hook a
   real deployment wires to its replication tailer; shipping uses the
   authoritative recovered sequence, so an unacked suffix (none here —
   a crashed round journals nothing) could never leak in. *)
let catch_up_and_promote ~primary_dir sup_f () =
  let r = must (Supervisor.recover ~dir:primary_dir) in
  let since = Supervisor.seq sup_f in
  if r.Supervisor.r_seq > since then begin
    let batch =
      must
        (Journal.ship ~dir:primary_dir ~since ~seq:r.Supervisor.r_seq
           ~max:1_000_000 ())
    in
    check "catch-up batch is complete" true batch.Journal.b_complete;
    ignore (must (Supervisor.apply_shipped sup_f batch))
  end;
  Supervisor.promote sup_f;
  Supervisor.seq sup_f

let failover_run ~dir ~domains ~crash_after ~wseed ~wframes ~rseed ~requests
    ~batch ~kill_standby_on_handoff =
  let sup_p, data, ship = open_live dir in
  let n = Array.length data in
  (* [dir_f] — the standby's store directory — outlives this run: the
     mid-promotion scenario recovers from it. Callers clean it up. *)
  let dir_f = temp_dir () in
  let path_p = sock_path () and path_s = sock_path () in
  let pool_p = Pool.create ~domains () and pool_s = Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool_p; Pool.shutdown pool_s)
  @@ fun () ->
  let primary =
    Server.create ~pool:pool_p
      (Server.config ~budget:8 ~queue_bound:64 ~ship ~role:"primary"
         ~store:sup_p ~recut_every:1 ~crash_after ~path:path_p data)
  in
  let runner_p = spawn_server primary in
  (* Bootstrap the warm standby from the live primary, then serve it
     {e live} (its own store) so it can accept writes once promoted. *)
  let c = connect path_p in
  let sup_f = (must (Replica.bootstrap ~dir:dir_f c)).Replica.store in
  Client.close c;
  Fun.protect ~finally:(fun () -> Supervisor.close sup_f) @@ fun () ->
  let standby_config ?crash_after path =
    Server.config ~budget:8 ~queue_bound:64
      ~ship:
        {
          Server.ship_dir = dir_f;
          ship_seq = Supervisor.seq sup_f;
          ship_manifest = ship.Server.ship_manifest;
        }
      ~role:"follower" ~store:sup_f ~recut_every:1 ?crash_after ~path data
  in
  let standby =
    Server.create ~pool:pool_s
      ~on_handoff:(catch_up_and_promote ~primary_dir:dir sup_f)
      (* The failover client opens its standby conversation with two
         SYNC frames (the first-contact probe, then read-your-replays)
         before the HANDOFF — a crash budget of 3 lands the kill on
         the promotion frame itself. *)
      (standby_config
         ?crash_after:(if kill_standby_on_handoff then Some 3 else None)
         path_s)
  in
  let runner_s = spawn_server standby in
  let obs = Registry.create () in
  let f = Failover.create ~obs ~wait_ms:5000. ~standby:path_s path_p in
  let frames = write_frames ~seed:wseed ~n ~frames:wframes in
  let acked, unsent, transcript =
    Fun.protect ~finally:(fun () -> Failover.close f) @@ fun () ->
    let acked, unsent = send_writes (Failover.rpc f) frames in
    let transcript =
      if unsent = [] then begin
        let t, _ = read_storm ~seed:rseed ~requests ~batch ~n (Failover.rpc f) in
        Some t
      end
      else None
    in
    (acked, unsent, transcript)
  in
  join_server runner_p;
  check "primary stopped at the simulated kill" true (Server.crashed primary);
  Supervisor.crash sup_p;
  (acked, unsent, transcript, runner_s, standby, sup_f, dir_f, path_s)

let test_failover_byte_identity () =
  let wseed = 17 and wframes = 10 and rseed = 4 and requests = 24 and batch = 3 in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf " (pool %d)" domains in
      let dir_ref = temp_dir () and dir_p = temp_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir_ref; rm_rf dir_p)
      @@ fun () ->
      build_store ~dir:dir_ref ~n:64 ~updates:16 ~seed:10 ();
      build_store ~dir:dir_p ~n:64 ~updates:16 ~seed:10 ();
      let reference, ref_state =
        reference_run ~dir:dir_ref ~domains ~recut_every:1 ~wseed ~wframes
          ~rseed ~requests ~batch
      in
      (* Kill the primary on its 8th frame: bootstrap's handshake +
         sync (2) and the failover probe (1) land first, so the crash
         interrupts the 5th write frame with four writes acked. *)
      let acked, unsent, transcript, runner_s, _standby, sup_f, dir_f, path_s
          =
        failover_run ~dir:dir_p ~domains ~crash_after:8 ~wseed ~wframes ~rseed
          ~requests ~batch ~kill_standby_on_handoff:false
      in
      Fun.protect
        ~finally:(fun () ->
          shutdown_via path_s;
          join_server runner_s;
          rm_rf dir_f)
      @@ fun () ->
      check ("every write frame answered through the failover" ^ tag) true
        (unsent = []);
      check ("acked sequence monotone through the promotion" ^ tag) true
        (acked = Supervisor.seq sup_f);
      check ("promotion flipped the store role" ^ tag) true
        (Supervisor.role sup_f = Supervisor.Primary);
      checks ("promoted standby state = failure-free state" ^ tag) ref_state
        (fingerprint sup_f);
      match transcript with
      | Some t ->
          checks
            ("read transcript byte-identical through the failover" ^ tag)
            reference t
      | None -> Alcotest.fail ("read storm never ran" ^ tag))
    [ 1; 4 ]

(* --- the kill between promotion and HANDOFF-ACK --- *)

let test_crash_mid_promotion () =
  let wseed = 19 and wframes = 8 and rseed = 2 and requests = 24 and batch = 3 in
  let domains = 1 in
  let dir_ref = temp_dir () and dir_p = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir_ref; rm_rf dir_p) @@ fun () ->
  build_store ~dir:dir_ref ~n:64 ~updates:16 ~seed:12 ();
  build_store ~dir:dir_p ~n:64 ~updates:16 ~seed:12 ();
  let reference, ref_state =
    reference_run ~dir:dir_ref ~domains ~recut_every:1 ~wseed ~wframes ~rseed
      ~requests ~batch
  in
  (* The standby's crash lands on the HANDOFF frame — after the hook
     promoted and caught up its store, before the ack is sent: the
     client sees the promotion fail with the promotion durably done. *)
  let acked, unsent, _transcript, runner_s, standby, sup_f, dir_f, _path_s =
    failover_run ~dir:dir_p ~domains ~crash_after:8 ~wseed ~wframes ~rseed
      ~requests ~batch ~kill_standby_on_handoff:true
  in
  Fun.protect ~finally:(fun () -> rm_rf dir_f) @@ fun () ->
  join_server runner_s;
  check "standby stopped at the simulated kill" true (Server.crashed standby);
  check "the mid-promotion kill left frames unanswered" true (unsent <> []);
  check "the store was promoted before the kill" true
    (Supervisor.role sup_f = Supervisor.Primary);
  let acked_f = Supervisor.seq sup_f in
  check "the caught-up store holds every acked write" true (acked_f >= acked);
  Supervisor.crash sup_f;
  (* Recover the promoted standby's store — a recovered store reopens
     writable, so promotion is idempotent across the kill — restart,
     re-issue the HANDOFF the client never saw acked, resend, read. *)
  let r = must (Supervisor.recover ~dir:dir_f) in
  checki "recovery holds the caught-up acked prefix" acked_f r.Supervisor.r_seq;
  let sup2, data2, ship2 = open_live dir_f in
  Fun.protect ~finally:(fun () -> Supervisor.close sup2) @@ fun () ->
  let path2 = sock_path () in
  let server2 =
    Server.create
      (Server.config ~budget:8 ~queue_bound:64 ~ship:ship2 ~role:"primary"
         ~store:sup2 ~recut_every:1 ~path:path2 data2)
  in
  let runner2 = spawn_server server2 in
  Fun.protect ~finally:(fun () -> shutdown_via path2; join_server runner2)
  @@ fun () ->
  let c2 = connect path2 in
  Fun.protect ~finally:(fun () -> Client.close c2) @@ fun () ->
  (* Re-issued HANDOFF acks idempotently with the recovered sequence. *)
  (match Client.request_one c2 Wire.Handoff with
  | Ok (Wire.Handoff_ack { seq; role }) ->
      checki "re-issued handoff acks the recovered sequence" acked_f seq;
      checks "as a primary" "primary" role
  | Ok rr -> Alcotest.fail ("handoff answered: " ^ Wire.describe_reply rr)
  | Error e -> Alcotest.fail (Validate.to_string e));
  let _, still_unsent = send_writes (Client.request c2) unsent in
  check "resend completes" true (still_unsent = []);
  let transcript, _ =
    read_storm ~seed:rseed ~requests ~batch ~n:(Array.length data2)
      (Client.request c2)
  in
  checks "store state byte-identical after the mid-promotion kill" ref_state
    (fingerprint sup2);
  checks "read transcript byte-identical after the mid-promotion kill"
    reference transcript

(* --- loadgen update mix + multi-connection determinism over a live
   wire --- *)

let test_loadgen_update_mix_multi () =
  let run_once dir =
    let sup, data, ship = open_live dir in
    Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
    let n = Array.length data in
    let path = sock_path () in
    let server =
      Server.create
        (Server.config ~budget:8 ~queue_bound:64 ~ship ~role:"primary"
           ~store:sup ~recut_every:8 ~path data)
    in
    let runner = spawn_server server in
    Fun.protect ~finally:(fun () -> shutdown_via path; join_server runner)
    @@ fun () ->
    let conns = Array.init 3 (fun _ -> connect path) in
    Fun.protect ~finally:(fun () -> Array.iter Client.close conns)
    @@ fun () ->
    let buf = Buffer.create 4096 in
    let msummary =
      must
        (Loadgen.run_multi
           ~rpcs:(Array.map Client.request conns)
           ~seed:21 ~requests:30 ~batch:3 ~n
           ~mix:{ Loadgen.default_mix with update = 3 }
           ~out:(Buffer.add_string buf) ())
    in
    (Buffer.contents buf, msummary, Supervisor.seq sup)
  in
  let dir_a = temp_dir () and dir_b = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir_a; rm_rf dir_b) @@ fun () ->
  build_store ~dir:dir_a ~n:32 ~updates:12 ~seed:14 ();
  build_store ~dir:dir_b ~n:32 ~updates:12 ~seed:14 ();
  let ta, sa, seq_a = run_once dir_a in
  let tb, sb, seq_b = run_once dir_b in
  checks "multi-connection write/read transcript reproducible" ta tb;
  checks "interleaved transcript CRC reproducible"
    sa.Loadgen.totals.Loadgen.transcript_crc
    sb.Loadgen.totals.Loadgen.transcript_crc;
  checki "three connections fingerprinted" 3
    (Array.length sa.Loadgen.connection_crcs);
  Array.iteri
    (fun i crc -> checks (Printf.sprintf "connection %d CRC" i) crc
        sb.Loadgen.connection_crcs.(i))
    sa.Loadgen.connection_crcs;
  check "the mix drew updates" true (seq_a > 12);
  checki "both runs journaled the same history" seq_a seq_b

let () =
  Alcotest.run "chaos-update"
    [
      ( "live wire",
        [
          Alcotest.test_case "writes ack, validate, and bound the reads"
            `Quick test_live_write_read;
          Alcotest.test_case "read-only server refuses writes in-band" `Quick
            test_read_only_refuses_writes;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case
            "kill mid-storm, whole round lost, byte-identical after resend"
            `Quick test_crash_recover_byte_identity;
          Alcotest.test_case
            "kill mid-schedule keeps exactly the acked prefix" `Quick
            test_crash_mid_schedule_acked_prefix;
        ] );
      ( "failover",
        [
          Alcotest.test_case "storm survives a promotion byte-identically"
            `Quick test_failover_byte_identity;
          Alcotest.test_case "kill between promotion and its ack" `Quick
            test_crash_mid_promotion;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "update mix over connections is deterministic"
            `Quick test_loadgen_update_mix_multi;
        ] );
    ]
