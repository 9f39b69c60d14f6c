(* Network chaos and replication suite: journal shipping over the
   wire, follower bootstrap, connection fault modes, SIGTERM drain,
   and the headline failover proof — a seeded loadgen schedule that
   survives a primary crash mid-storm with a reply transcript
   byte-identical to a run with no failure at all, at every pool size.

   Run via `dune runtest` or in isolation via `dune build @chaos-net`.
   A watchdog alarm fails the whole suite rather than letting a hung
   socket test wedge the runner. *)

module Validate = Wavesyn_robust.Validate
module Fault = Wavesyn_robust.Fault
module Snapshot = Wavesyn_robust.Snapshot
module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
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
           "chaos-net watchdog: a socket test hung past the deadline";
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
        (Printf.sprintf "wavesyn_chaos_net_%d_%d" (Unix.getpid ()) !counter)
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
    Printf.sprintf "%s/wavesyn-chaos-net-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !counter

let must = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Validate.to_string e)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

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

(* Canonical state fingerprint: two stores are byte-identical iff the
   encodings of their coefficient states are equal. *)
let fingerprint sup =
  Snapshot.encode
    (Snapshot.of_stream ~seq:(Supervisor.seq sup) (Supervisor.stream sup))

(* A primary store with [updates] seeded point updates acknowledged. *)
let build_store ?keep ~dir ~n ~updates ~seed () =
  let scfg =
    Supervisor.config ~checkpoint_every:1_000_000 ~recut_every:1_000_000
      ?keep ~sync:false ~dir ~n ~budget:8 Metrics.Abs
  in
  let sup = must (Supervisor.open_store scfg) in
  let rng = Prng.create ~seed in
  for _ = 1 to updates do
    ignore
      (must
         (Supervisor.ingest sup ~i:(Prng.int rng n)
            ~delta:(float_of_int (Prng.int rng 21 - 10) /. 4.)))
  done;
  (sup, scfg)

(* Serve an existing (closed) store: recovered data plus a ship
   source, exactly as `server --listen --store` wires it. *)
let ship_of_store dir =
  let r = must (Supervisor.recover ~dir) in
  ( Stream_synopsis.current_data r.Supervisor.r_stream,
    {
      Server.ship_dir = dir;
      ship_seq = r.Supervisor.r_seq;
      ship_manifest = Supervisor.manifest_text r.Supervisor.r_config;
    } )

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

(* --- replica sync and bootstrap --- *)

let test_replica_bootstrap () =
  let dir_p = temp_dir () and dir_f = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir_p; rm_rf dir_f) @@ fun () ->
  let sup_p, scfg = build_store ~dir:dir_p ~n:32 ~updates:20 ~seed:2 () in
  let reference = fingerprint sup_p in
  Supervisor.close sup_p;
  let data, ship = ship_of_store dir_p in
  let path = sock_path () in
  let server =
    Server.create
      (Server.config ~budget:8 ~ship ~role:"primary" ~path data)
  in
  let runner = spawn_server server in
  Fun.protect ~finally:(fun () -> shutdown_via path; join_server runner)
  @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* Bootstrap carries the primary's exact manifest and pages the whole
     journal across SYNC batches. *)
  let { Replica.store = sup_f; progress; manifest; _ } =
    must (Replica.bootstrap ~batch:8 ~dir:dir_f c)
  in
  checks "shipped manifest" (Supervisor.manifest_text scfg) manifest;
  Fun.protect ~finally:(fun () -> Supervisor.close sup_f) @@ fun () ->
  checki "paged batches" 3 progress.Replica.batches;
  checki "every record shipped" 20 progress.Replica.records;
  checki "no snapshot needed" 0 progress.Replica.snapshots;
  checki "follower current" 20 progress.Replica.final_seq;
  checks "follower state bit-identical to the primary" reference
    (fingerprint sup_f);
  (* A second sync against a current follower ships nothing. *)
  let again = must (Replica.sync c sup_f) in
  checki "idempotent sync ships nothing" 0 again.Replica.records;
  (* Follower is read-only until promoted — then writes flow. *)
  check "follower refuses ingest" true
    (Result.is_error (Supervisor.ingest sup_f ~i:1 ~delta:1.));
  check "follower role" true (Supervisor.role sup_f = Supervisor.Follower);
  Supervisor.promote sup_f;
  checki "promoted store accepts the next write" 21
    (must (Supervisor.ingest sup_f ~i:1 ~delta:1.))

let test_replica_snapshot_bootstrap () =
  let dir_p = temp_dir () and dir_f = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir_p; rm_rf dir_f) @@ fun () ->
  (* Checkpoint + compaction leaves the journal starting past the
     origin: a since=0 cursor can only be served by a snapshot. *)
  let sup_p, _ = build_store ~keep:1 ~dir:dir_p ~n:32 ~updates:30 ~seed:4 () in
  ignore (must (Supervisor.checkpoint sup_p));
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 5 do
    ignore
      (must
         (Supervisor.ingest sup_p ~i:(Prng.int rng 32)
            ~delta:(float_of_int (Prng.int rng 9 - 4))))
  done;
  let reference = fingerprint sup_p in
  Supervisor.close sup_p;
  let data, ship = ship_of_store dir_p in
  let path = sock_path () in
  let server =
    Server.create
      (Server.config ~budget:8 ~ship ~role:"primary" ~path data)
  in
  let runner = spawn_server server in
  Fun.protect ~finally:(fun () -> shutdown_via path; join_server runner)
  @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let { Replica.store = sup_f; progress; _ } =
    must (Replica.bootstrap ~dir:dir_f c)
  in
  Fun.protect ~finally:(fun () -> Supervisor.close sup_f) @@ fun () ->
  checki "bootstrapped through a snapshot" 1 progress.Replica.snapshots;
  checki "journal suffix shipped on top" 5 progress.Replica.records;
  checki "follower current" 35 progress.Replica.final_seq;
  checks "snapshot + suffix reproduces the primary" reference
    (fingerprint sup_f)

(* --- connection fault modes --- *)

let test_data n =
  let rng = Prng.create ~seed:5 in
  Array.init n (fun _ -> Prng.float rng 50.)

(* Run [f client] against a standalone server whose every connection
   is armed with [kinds]; stop the server with SIGTERM afterwards —
   chaos servers cannot be shut down over their own poisoned wire. *)
let with_faulty_server ?timeout_ms ~kinds ~seed f =
  let path = sock_path () in
  let fault = Fault.create ~kinds ~seed () in
  let server =
    Server.create (Server.config ~budget:8 ~conn_fault:fault ~path (test_data 32))
  in
  let runner = spawn_server server in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Unix.kill (Unix.getpid ()) Sys.sigterm;
        join_server runner)
      (fun () ->
        let c = connect ?timeout_ms path in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c))
  in
  check "chaos server drains on SIGTERM" true (Server.drained server);
  result

let test_conn_fault_modes () =
  (* Conn_drop severs the flow before the request is read. *)
  with_faulty_server ~kinds:[ Fault.Conn_drop ] ~seed:1 (fun c ->
      match Client.request_one c Wire.Ping with
      | Error (Validate.Io_error _) -> ()
      | Ok r -> Alcotest.fail ("drop answered: " ^ Wire.describe_reply r)
      | Error e -> Alcotest.fail (Validate.to_string e));
  (* Conn_truncate tears the reply mid-frame and kills the connection. *)
  with_faulty_server ~kinds:[ Fault.Conn_truncate ] ~seed:2 (fun c ->
      match Client.request_one c Wire.Ping with
      | Error (Validate.Io_error _) -> ()
      | Ok r -> Alcotest.fail ("torn reply decoded: " ^ Wire.describe_reply r)
      | Error e -> Alcotest.fail (Validate.to_string e));
  (* Corrupt_frame flips one bit; the frame CRC rejects the reply. *)
  with_faulty_server ~kinds:[ Fault.Corrupt_frame ] ~seed:3 (fun c ->
      match Client.request_one c Wire.Ping with
      | Error (Validate.Io_error { reason; _ }) ->
          check "CRC named the corruption" true (contains reason "corrupt")
      | Ok r -> Alcotest.fail ("corrupt reply accepted: " ^ Wire.describe_reply r)
      | Error e -> Alcotest.fail (Validate.to_string e));
  (* Blackhole swallows the request forever: only the client's read
     deadline escapes, as the structured timeout error. *)
  with_faulty_server ~timeout_ms:200. ~kinds:[ Fault.Blackhole ] ~seed:4
    (fun c ->
      match Client.request_one c Wire.Ping with
      | Error (Validate.Timeout { what; ms }) ->
          checks "timeout names the wait" "server reply" what;
          check "timeout carries the deadline" true (ms = 200.)
      | Ok r -> Alcotest.fail ("blackhole answered: " ^ Wire.describe_reply r)
      | Error e -> Alcotest.fail (Validate.to_string e));
  (* Conn_delay defers the reply one event-loop round — latency only,
     the answer still arrives intact. *)
  with_faulty_server ~kinds:[ Fault.Conn_delay ] ~seed:5 (fun c ->
      match Client.request_one c Wire.Ping with
      | Ok Wire.Pong -> ()
      | Ok r -> Alcotest.fail ("delayed reply mangled: " ^ Wire.describe_reply r)
      | Error e -> Alcotest.fail (Validate.to_string e))

(* --- SIGTERM drain --- *)

let test_sigterm_drain () =
  let path = sock_path () in
  let hook = ref false in
  let server =
    Server.create
      ~on_drain:(fun () -> hook := true)
      (Server.config ~budget:8 ~path (test_data 32))
  in
  let runner = spawn_server server in
  let c = connect path in
  check "alive before the signal" true
    (Client.request_one c Wire.Ping = Ok Wire.Pong);
  Client.close c;
  Unix.kill (Unix.getpid ()) Sys.sigterm;
  join_server runner;
  check "terminated via the drain path" true (Server.drained server);
  check "not a crash" false (Server.crashed server);
  check "on_drain ran after the drain" true !hook;
  check "socket file removed" false (Sys.file_exists path)

(* --- the failover proof --- *)

let storm ~seed ~requests ~batch ~n rpc =
  let buf = Buffer.create 4096 in
  let summary =
    must
      (Loadgen.run ~rpc ~seed ~requests ~batch ~n ~mix:Loadgen.default_mix
         ~out:(Buffer.add_string buf) ())
  in
  (Buffer.contents buf, summary)

(* The no-failure reference: the same store served by one healthy
   primary, the same seeded schedule. *)
let baseline_transcript ~dir ~seed ~requests ~batch =
  let data, ship = ship_of_store dir in
  let path = sock_path () in
  let server =
    Server.create
      (Server.config ~budget:8 ~queue_bound:64 ~ship ~role:"primary" ~path data)
  in
  let runner = spawn_server server in
  Fun.protect ~finally:(fun () -> shutdown_via path; join_server runner)
  @@ fun () ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  storm ~seed ~requests ~batch ~n:(Array.length data) (Client.request c)

(* Kill the primary mid-storm with [crash_after] and let the client
   fail over to a bootstrapped warm standby. Returns the transcript,
   the summary, and the failover metrics table. *)
let failover_transcript ~dir ~domains ~seed ~requests ~batch ~crash_after =
  let data, ship = ship_of_store dir in
  let n = Array.length data in
  let dir_f = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir_f) @@ fun () ->
  let path_p = sock_path () and path_s = sock_path () in
  let pool_p = Pool.create ~domains () and pool_s = Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool_p; Pool.shutdown pool_s)
  @@ fun () ->
  let primary =
    Server.create ~pool:pool_p
      (Server.config ~budget:8 ~queue_bound:64 ~ship ~role:"primary"
         ~crash_after ~path:path_p data)
  in
  let runner_p = spawn_server primary in
  (* Bootstrap the warm standby from the live primary. *)
  let c = connect path_p in
  let sup_f = (must (Replica.bootstrap ~dir:dir_f c)).Replica.store in
  Client.close c;
  Fun.protect ~finally:(fun () -> Supervisor.close sup_f) @@ fun () ->
  let standby =
    Server.create ~pool:pool_s
      ~on_handoff:(fun () ->
        Supervisor.promote sup_f;
        Supervisor.seq sup_f)
      (Server.config ~budget:8 ~queue_bound:64
         ~ship:
           {
             Server.ship_dir = dir_f;
             ship_seq = Supervisor.seq sup_f;
             ship_manifest = ship.Server.ship_manifest;
           }
         ~role:"follower" ~path:path_s data)
  in
  let runner_s = spawn_server standby in
  Fun.protect ~finally:(fun () -> shutdown_via path_s; join_server runner_s)
  @@ fun () ->
  let obs = Registry.create () in
  let f = Failover.create ~obs ~wait_ms:5000. ~standby:path_s path_p in
  let transcript, summary =
    Fun.protect ~finally:(fun () -> Failover.close f) @@ fun () ->
    storm ~seed ~requests ~batch ~n (Failover.rpc f)
  in
  join_server runner_p;
  check "primary stopped at the simulated kill" true (Server.crashed primary);
  check "client promoted the standby" true (Failover.promoted f);
  check "standby holds every acked write the client saw" true
    (Failover.seen_seq f <= Supervisor.seq sup_f);
  check "promotion flipped the store role" true
    (Supervisor.role sup_f = Supervisor.Primary);
  (transcript, summary, Registry.render_table obs)

let test_failover_byte_identity () =
  let dir_p = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir_p) @@ fun () ->
  let sup_p, _ = build_store ~dir:dir_p ~n:64 ~updates:16 ~seed:6 () in
  Supervisor.close sup_p;
  let seed = 7 and requests = 32 and batch = 4 in
  (* Schedule frames on the primary before the kill: bootstrap's
     handshake + sync (2) and the failover client's probe (1), then
     loadgen frames — crash_after 7 kills the primary on the 4th
     loadgen frame, mid-storm, with that frame unanswered. *)
  let crash_after = 7 in
  let reference, ref_summary =
    baseline_transcript ~dir:dir_p ~seed ~requests ~batch
  in
  checki "the schedule saturates nothing" 0 ref_summary.Loadgen.overloads;
  List.iter
    (fun domains ->
      let transcript, summary, table =
        failover_transcript ~dir:dir_p ~domains ~seed ~requests ~batch
          ~crash_after
      in
      let tag = Printf.sprintf " (pool %d)" domains in
      checks ("failover transcript byte-identical" ^ tag) reference transcript;
      checks ("transcript CRC identical" ^ tag)
        ref_summary.Loadgen.transcript_crc summary.Loadgen.transcript_crc;
      checki ("every request answered" ^ tag) requests summary.Loadgen.replies;
      checki ("one transport failure" ^ tag) 1
        (counter_value table "client.failover.failures");
      checki ("one promotion" ^ tag) 1
        (counter_value table "client.failover.promotions");
      checki ("the dropped frame resent" ^ tag) 1
        (counter_value table "client.failover.resends");
      checki ("breaker tripped once" ^ tag) 1
        (counter_value table "retry.breaker.trips"))
    [ 1; 4 ]

(* Client-side chaos — drop, torn frame, delay — must be invisible in
   the transcript: dropped and torn frames are resent whole on a fresh
   connection before any reply is recorded. *)
let test_client_chaos_transcript () =
  let path = sock_path () in
  let data = test_data 64 in
  let server =
    Server.create (Server.config ~budget:8 ~queue_bound:64 ~path data)
  in
  let runner = spawn_server server in
  Fun.protect ~finally:(fun () -> shutdown_via path; join_server runner)
  @@ fun () ->
  let run fault =
    let f = Failover.create ~wait_ms:5000. ?fault path in
    Fun.protect ~finally:(fun () -> Failover.close f) @@ fun () ->
    storm ~seed:13 ~requests:24 ~batch:3 ~n:64 (Failover.rpc f)
  in
  let clean, clean_summary = run None in
  let chaotic, chaos_summary =
    run
      (Some
         (Fault.create
            ~kinds:[ Fault.Conn_drop; Fault.Conn_truncate; Fault.Conn_delay ]
            ~rate:0.4 ~seed:21 ()))
  in
  checks "chaos leaves the transcript byte-identical" clean chaotic;
  checks "and the CRC" clean_summary.Loadgen.transcript_crc
    chaos_summary.Loadgen.transcript_crc

let () =
  Alcotest.run "chaos-net"
    [
      ( "replica",
        [
          Alcotest.test_case "bootstrap pages the journal" `Quick
            test_replica_bootstrap;
          Alcotest.test_case "compacted cursor bootstraps via snapshot" `Quick
            test_replica_snapshot_bootstrap;
        ] );
      ( "conn faults",
        [ Alcotest.test_case "every mode observable" `Quick test_conn_fault_modes ] );
      ( "drain",
        [ Alcotest.test_case "sigterm drains cleanly" `Quick test_sigterm_drain ] );
      ( "failover",
        [
          Alcotest.test_case "crash mid-storm, byte-identical transcript"
            `Quick test_failover_byte_identity;
          Alcotest.test_case "client-side chaos is transcript-invisible"
            `Quick test_client_chaos_transcript;
        ] );
    ]
