(* Tests for the network serving subsystem: wire protocol framing,
   admission control, and live end-to-end rounds over a Unix socket. *)

module Wire = Wavesyn_server.Wire
module Admit = Wavesyn_server.Admit
module Server = Wavesyn_server.Server
module Client = Wavesyn_server.Client
module Loadgen = Wavesyn_server.Loadgen
module Registry = Wavesyn_obs.Registry
module Metric = Wavesyn_obs.Metric
module Validate = Wavesyn_robust.Validate
module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Prng = Wavesyn_util.Prng

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkf = Alcotest.(check (float 1e-12))

(* --- wire framing --- *)

let roundtrip_request r =
  let frame = Wire.encode_request r in
  match
    Wire.decode
      (Bytes.of_string frame)
      ~pos:0
      ~len:(String.length frame)
  with
  | `Frame (Wire.Req r', consumed) ->
      checki "whole frame consumed" (String.length frame) consumed;
      check ("roundtrip " ^ Wire.describe_request r) true (r = r')
  | `Frame (Wire.Rep _, _) -> Alcotest.fail "decoded as reply"
  | `Incomplete -> Alcotest.fail "incomplete"
  | `Corrupt reason -> Alcotest.fail ("corrupt: " ^ reason)

let roundtrip_reply r =
  let frame = Wire.encode_reply r in
  match
    Wire.decode
      (Bytes.of_string frame)
      ~pos:0
      ~len:(String.length frame)
  with
  | `Frame (Wire.Rep r', consumed) ->
      checki "whole frame consumed" (String.length frame) consumed;
      check ("roundtrip " ^ Wire.describe_reply r) true (r = r')
  | `Frame (Wire.Req _, _) -> Alcotest.fail "decoded as request"
  | `Incomplete -> Alcotest.fail "incomplete"
  | `Corrupt reason -> Alcotest.fail ("corrupt: " ^ reason)

let test_wire_roundtrip () =
  List.iter roundtrip_request
    [
      Wire.Ping;
      Wire.Point 0;
      Wire.Point 123456789;
      Wire.Range { lo = 0; hi = 63 };
      Wire.Quantile 0.5;
      Wire.Quantile 1e-300;
      Wire.Stats;
      Wire.Shutdown;
      Wire.Batch [ Wire.Ping; Wire.Point 3; Wire.Range { lo = 1; hi = 2 } ];
      Wire.Batch [];
      Wire.Sync { since = 0; max = 0 };
      Wire.Sync { since = 123456789; max = 256 };
      Wire.Handoff;
      Wire.Update { i = 0; delta = 0.5 };
      Wire.Update { i = 123456; delta = -1.25e-300 };
      Wire.Ingest [ (3, 0.5); (7, -0.25); (3, 1.5) ];
      Wire.Ingest [];
      Wire.Batch [ Wire.Update { i = 2; delta = 1.0 }; Wire.Point 2 ];
    ];
  List.iter roundtrip_reply
    [
      Wire.Pong;
      Wire.Value 5.25;
      Wire.Value (-0.);
      Wire.Value Float.infinity;
      Wire.Quantile_pos 42;
      Wire.Stats_text "counter server.shed 0\n";
      Wire.Stats_text "";
      Wire.Overload { bound = 4; depth = 4; tier = "minmax" };
      Wire.Bye;
      Wire.Error { code = Wire.Out_of_range; message = "cell 99" };
      Wire.Error { code = Wire.Internal; message = "" };
      Wire.Ship
        { last_seq = 0; complete = true; manifest = ""; body = Wire.Ship_none };
      Wire.Ship
        {
          last_seq = 42;
          complete = false;
          manifest = "n 64\nbudget 8\n";
          body = Wire.Ship_records "ship 0 1 42 0\n1 3 0x1.8p+0 1234abcd\nend 0\n";
        };
      Wire.Ship
        {
          last_seq = 7;
          complete = true;
          manifest = "n 8\n";
          body = Wire.Ship_snapshot "sealed-bytes\x00\x01\x02";
        };
      Wire.Handoff_ack { seq = 99; role = "primary" };
      Wire.Acked { seq = 0 };
      Wire.Acked { seq = 123456789 };
    ]

let test_wire_float_exact () =
  (* IEEE bit patterns survive the wire: the reply carries the exact
     double the server computed, not a printed approximation. *)
  let v = 0.1 +. 0.2 in
  let frame = Wire.encode_reply (Wire.Value v) in
  match
    Wire.decode (Bytes.of_string frame) ~pos:0 ~len:(String.length frame)
  with
  | `Frame (Wire.Rep (Wire.Value v'), _) ->
      checkf "bits preserved" v v';
      check "bit-identical" true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v'))
  | _ -> Alcotest.fail "expected a Value reply"

let test_wire_corruption () =
  let frame = Wire.encode_request (Wire.Point 7) in
  let len = String.length frame in
  (* No flipped byte after the magic is ever accepted as a frame. Most
     flips are an immediate CRC mismatch; a flip in the length field
     may instead read as Incomplete (the frame now claims to be
     longer), which the CRC rejects once more bytes arrive — either
     way, never a decoded frame. *)
  for i = 4 to len - 1 do
    let b = Bytes.of_string frame in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    match Wire.decode b ~pos:0 ~len with
    | `Corrupt _ | `Incomplete -> ()
    | `Frame _ -> Alcotest.fail (Printf.sprintf "byte %d: accepted" i)
  done;
  (* A flip outside the length field specifically is a CRC mismatch. *)
  (let b = Bytes.of_string frame in
   Bytes.set b (len - 6) (Char.chr (Char.code (Bytes.get b (len - 6)) lxor 1));
   match Wire.decode b ~pos:0 ~len with
   | `Corrupt _ -> ()
   | _ -> Alcotest.fail "payload flip not caught by CRC");
  (* Bad magic. *)
  (match Wire.decode (Bytes.of_string "XYZW____") ~pos:0 ~len:8 with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  (* Every truncation is Incomplete, never Corrupt. *)
  for k = 0 to len - 1 do
    match Wire.decode (Bytes.of_string frame) ~pos:0 ~len:k with
    | `Incomplete -> ()
    | `Frame _ -> Alcotest.fail (Printf.sprintf "prefix %d: frame" k)
    | `Corrupt r -> Alcotest.fail (Printf.sprintf "prefix %d: corrupt %s" k r)
  done;
  (* Oversized declared payload is rejected before buffering it. *)
  let huge = Bytes.of_string frame in
  Bytes.set_int32_be huge 6 (Int32.of_int (Wire.max_payload + 1));
  (match Wire.decode huge ~pos:0 ~len with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "oversized payload accepted");
  (* Frames decode at any offset. *)
  let shifted = Bytes.of_string ("\x00\x00\x00" ^ frame) in
  match Wire.decode shifted ~pos:3 ~len:(3 + len) with
  | `Frame (Wire.Req (Wire.Point 7), consumed) ->
      checki "offset consumed" (3 + len) consumed
  | _ -> Alcotest.fail "offset decode failed"

let test_wire_batch_constraints () =
  Alcotest.check_raises "nested batch"
    (Invalid_argument "Wire: nested BATCH") (fun () ->
      ignore (Wire.encode_request (Wire.Batch [ Wire.Batch [] ])));
  Alcotest.check_raises "shutdown in batch"
    (Invalid_argument "Wire: SHUTDOWN inside BATCH") (fun () ->
      ignore (Wire.encode_request (Wire.Batch [ Wire.Shutdown ])));
  Alcotest.check_raises "sync in batch"
    (Invalid_argument "Wire: SYNC inside BATCH") (fun () ->
      ignore
        (Wire.encode_request (Wire.Batch [ Wire.Sync { since = 0; max = 1 } ])));
  Alcotest.check_raises "handoff in batch"
    (Invalid_argument "Wire: HANDOFF inside BATCH") (fun () ->
      ignore (Wire.encode_request (Wire.Batch [ Wire.Handoff ])));
  Alcotest.check_raises "ingest in batch"
    (Invalid_argument "Wire: INGEST inside BATCH") (fun () ->
      ignore (Wire.encode_request (Wire.Batch [ Wire.Ingest [ (1, 1.0) ] ])))

(* The storm artifact: a CRC-sealed text form mirroring SHIP batches,
   validated as a unit below the frame layer. *)
let test_wire_storm_codec () =
  let roundtrip deltas =
    match Wire.decode_storm (Wire.encode_storm deltas) with
    | Ok got ->
        check "storm round-trips bit-exactly" true
          (List.for_all2
             (fun (i, d) (i', d') ->
               i = i' && Int64.bits_of_float d = Int64.bits_of_float d')
             deltas got)
    | Error reason -> Alcotest.fail ("storm rejected: " ^ reason)
  in
  roundtrip [];
  roundtrip [ (0, 0.1 +. 0.2) ];
  roundtrip [ (3, 0.5); (7, -0.25); (3, 1.5); (1023, 1e-300) ];
  (* Every single-byte flip anywhere in the artifact — header, delta
     line, trailer — is rejected as a unit. *)
  let sealed = Wire.encode_storm [ (3, 0.5); (7, -0.25) ] in
  for pos = 0 to String.length sealed - 2 do
    let b = Bytes.of_string sealed in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    match Wire.decode_storm (Bytes.to_string b) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (Printf.sprintf "flipped byte %d accepted" pos)
  done;
  (* A torn artifact (lost trailer) never yields a delta prefix. *)
  match Wire.decode_storm (String.sub sealed 0 (String.length sealed / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn storm accepted"

let test_wire_text () =
  let ok line expected =
    match Wire.parse_text_request line with
    | Ok r -> check line true (r = expected)
    | Error reason -> Alcotest.fail (line ^ ": " ^ reason)
  in
  ok "PING" Wire.Ping;
  ok "POINT 3" (Wire.Point 3);
  ok "  RANGE 0 7  " (Wire.Range { lo = 0; hi = 7 });
  ok "QUANTILE 0.5" (Wire.Quantile 0.5);
  ok "STATS" Wire.Stats;
  ok "SHUTDOWN" Wire.Shutdown;
  ok "UPDATE 3 0.5" (Wire.Update { i = 3; delta = 0.5 });
  ok "UPDATE 0 -1.25" (Wire.Update { i = 0; delta = -1.25 });
  List.iter
    (fun line ->
      match Wire.parse_text_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ line))
    [
      "";
      "ping";
      "POINT";
      "POINT x";
      "RANGE 1";
      "QUANTILE a";
      "NOPE 1";
      "UPDATE 3";
      "UPDATE x 0.5";
      "UPDATE 3 x";
      "INGEST 3";
    ];
  checks "pong" "PONG\n" (Wire.render_text_reply Wire.Pong);
  checks "value" "VALUE 5.25\n" (Wire.render_text_reply (Wire.Value 5.25));
  checks "acked" "ACKED seq=42\n" (Wire.render_text_reply (Wire.Acked { seq = 42 }));
  checks "stats end-terminated" "a 1\nEND\n"
    (Wire.render_text_reply (Wire.Stats_text "a 1\n"));
  checks "overload" "OVERLOAD bound=4 depth=4 tier=minmax\n"
    (Wire.render_text_reply
       (Wire.Overload { bound = 4; depth = 4; tier = "minmax" }))

(* --- admission control --- *)

let test_admit_bound_and_drain () =
  let a = Admit.create ~bound:2 () in
  check "offer 1" true (Admit.offer a 1);
  check "offer 2" true (Admit.offer a 2);
  check "offer 3 shed" false (Admit.offer a 3);
  checki "depth" 2 (Admit.depth a);
  checki "shed" 1 (Admit.shed_total a);
  check "fifo" true (Admit.take_batch a = [ 1; 2 ]);
  checki "drained" 0 (Admit.depth a);
  check "offer after drain" true (Admit.offer a 4);
  checki "admitted total" 3 (Admit.admitted_total a);
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Admit.create: bound must be at least 1") (fun () ->
      ignore (Admit.create ~bound:0 () : int Admit.t))

let test_admit_pressure_trajectory () =
  let a = Admit.create ~bound:1 () in
  checki "starts calm" 0 (Admit.pressure a);
  (* Shedding rounds climb one level each, capped at 2. *)
  check "0->1" true (Admit.note_round a ~shed:1);
  checki "level 1" 1 (Admit.pressure a);
  check "1->2" true (Admit.note_round a ~shed:3);
  checki "level 2" 2 (Admit.pressure a);
  check "capped" false (Admit.note_round a ~shed:1);
  checki "still 2" 2 (Admit.pressure a);
  (* Eight consecutive quiet rounds relax one level. *)
  for k = 1 to 7 do
    check (Printf.sprintf "quiet %d" k) false (Admit.note_round a ~shed:0)
  done;
  check "2->1 on the eighth" true (Admit.note_round a ~shed:0);
  checki "level 1 again" 1 (Admit.pressure a);
  (* A shed in the middle restarts the quiet run. *)
  for _ = 1 to 7 do ignore (Admit.note_round a ~shed:0) done;
  check "shed restarts the count" true (Admit.note_round a ~shed:1);
  checki "back to 2" 2 (Admit.pressure a);
  for _ = 1 to 7 do ignore (Admit.note_round a ~shed:0) done;
  check "needs a full fresh run" true (Admit.note_round a ~shed:0);
  checki "level 1 once more" 1 (Admit.pressure a)

(* --- end-to-end over a live socket --- *)

let sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "%s/wavesyn-test-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !counter

let test_data n =
  let rng = Prng.create ~seed:5 in
  Array.init n (fun _ -> Prng.float rng 50.)

(* Start a server in its own domain, run [f client], always shut the
   server down and join. *)
let with_server ?(queue_bound = 64) ?obs ~n f =
  let path = sock_path () in
  let data = test_data n in
  let cfg = Server.config ~budget:8 ~queue_bound ~path data in
  let server = Server.create ?obs cfg in
  let runner = Domain.spawn (fun () -> Server.run server) in
  let finish () =
    (match Client.connect ~wait_ms:5000. path with
    | Ok c ->
        ignore (Client.request_one c Wire.Shutdown);
        Client.close c
    | Error _ -> ());
    match Domain.join runner with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("server run: " ^ Validate.to_string e)
  in
  match
    let client =
      match Client.connect ~wait_ms:5000. path with
      | Ok c -> c
      | Error e -> failwith (Validate.to_string e)
    in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    f ~data client
  with
  | result ->
      finish ();
      (result, Server.stats server)
  | exception e ->
      finish ();
      raise e

let expect_one client req =
  match Client.request_one client req with
  | Ok reply -> reply
  | Error e -> Alcotest.fail (Validate.to_string e)

let test_end_to_end () =
  let (), stats =
    with_server ~n:32 @@ fun ~data client ->
    check "ping" true (expect_one client Wire.Ping = Wire.Pong);
    (* Replies match direct evaluation of the same synopsis; with
       budget 8 < 32 cells the values are approximations of [data],
       so compare against the synopsis, not the raw data. *)
    (match expect_one client (Wire.Range { lo = 0; hi = 31 }) with
    | Wire.Value v -> check "range finite" true (Float.is_finite v)
    | r -> Alcotest.fail ("range: " ^ Wire.describe_reply r));
    (match expect_one client (Wire.Point 3) with
    | Wire.Value v -> check "point finite" true (Float.is_finite v)
    | r -> Alcotest.fail ("point: " ^ Wire.describe_reply r));
    (match expect_one client (Wire.Quantile 0.5) with
    | Wire.Quantile_pos p ->
        check "quantile in domain" true (p >= 0 && p < Array.length data)
    | r -> Alcotest.fail ("quantile: " ^ Wire.describe_reply r));
    (* Structured errors, connection intact afterwards. *)
    (match expect_one client (Wire.Point 99) with
    | Wire.Error { code = Wire.Out_of_range; _ } -> ()
    | r -> Alcotest.fail ("bad point: " ^ Wire.describe_reply r));
    (match expect_one client (Wire.Range { lo = 5; hi = 2 }) with
    | Wire.Error { code = Wire.Out_of_range; _ } -> ()
    | r -> Alcotest.fail ("bad range: " ^ Wire.describe_reply r));
    (match expect_one client (Wire.Quantile 1.5) with
    | Wire.Error { code = Wire.Out_of_range; _ } -> ()
    | r -> Alcotest.fail ("bad quantile: " ^ Wire.describe_reply r));
    (* Still alive. *)
    check "ping after errors" true (expect_one client Wire.Ping = Wire.Pong);
    (* The metrics table comes back over the wire. *)
    match expect_one client Wire.Stats with
    | Wire.Stats_text body ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i =
            i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
          in
          go 0
        in
        check "stats mentions server.requests" true
          (contains body "server.requests")
    | r -> Alcotest.fail ("stats: " ^ Wire.describe_reply r)
  in
  check "no shedding" true (stats.Server.shed = 0);
  check "tier stays top" true (stats.Server.tier = "minmax");
  (* The query connection plus the shutdown helper's. *)
  checki "connections" 2 stats.Server.accepted

let test_batch_and_overload () =
  let (), stats =
    with_server ~n:32 ~queue_bound:3 @@ fun ~data:_ client ->
    let reqs = List.init 6 (fun i -> Wire.Point i) in
    match Client.request client (Wire.Batch reqs) with
    | Error e -> Alcotest.fail (Validate.to_string e)
    | Ok replies ->
        checki "one reply per entry" 6 (List.length replies);
        let values, overloads =
          List.partition
            (function Wire.Value _ -> true | _ -> false)
            replies
        in
        checki "first three answered" 3 (List.length values);
        checki "rest shed" 3 (List.length overloads);
        List.iter
          (function
            | Wire.Overload { bound; depth; tier } ->
                checki "bound" 3 bound;
                checki "depth at bound" 3 depth;
                checks "tier named" "minmax" tier
            | r -> Alcotest.fail ("expected overload: " ^ Wire.describe_reply r))
          overloads;
        (* The connection survived the burst. *)
        check "ping after burst" true (expect_one client Wire.Ping = Wire.Pong)
  in
  checki "shed count" 3 stats.Server.shed;
  check "pressure stepped the ladder down" true
    (stats.Server.recuts >= 2 (* initial cut + pressure recut *))

let test_jobs_determinism () =
  (* The same seeded schedule against two servers — pool of 1 and pool
     of 3 domains — must produce byte-identical transcripts. *)
  let transcript domains =
    let path = sock_path () in
    let data = test_data 64 in
    let pool = Wavesyn_par.Pool.create ~domains () in
    Fun.protect ~finally:(fun () -> Wavesyn_par.Pool.shutdown pool)
    @@ fun () ->
    let cfg = Server.config ~budget:8 ~queue_bound:4 ~path data in
    let server = Server.create ~pool cfg in
    let runner = Domain.spawn (fun () -> Server.run server) in
    let buf = Buffer.create 4096 in
    let client =
      match Client.connect ~wait_ms:5000. path with
      | Ok c -> c
      | Error e -> failwith (Validate.to_string e)
    in
    let summary =
      Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
      let result =
        Loadgen.run ~rpc:(Client.request client) ~seed:11 ~requests:40 ~batch:8
          ~n:64
          ~mix:Loadgen.default_mix ~out:(Buffer.add_string buf) ()
      in
      ignore (Client.request_one client Wire.Shutdown);
      match result with
      | Ok s -> s
      | Error e -> failwith (Validate.to_string e)
    in
    (match Domain.join runner with
    | Ok () -> ()
    | Error e -> failwith (Validate.to_string e));
    (Buffer.contents buf, summary)
  in
  let t1, s1 = transcript 1 in
  let t3, s3 = transcript 3 in
  check "transcripts byte-identical" true (String.equal t1 t3);
  checks "crc identical" s1.Loadgen.transcript_crc s3.Loadgen.transcript_crc;
  checki "same shed count" s1.Loadgen.overloads s3.Loadgen.overloads;
  check "the schedule actually overloads" true (s1.Loadgen.overloads > 0);
  checki "all requests answered" 40 s1.Loadgen.replies

(* The role is parsed once: a typo is a configuration error, not a
   server exporting [server.role -1]. *)
let test_config_role () =
  let role_of s = (Server.config ~role:s ~path:"unused" [| 0. |]).Server.role in
  check "primary" true (role_of "primary" = Server.Primary);
  check "follower" true (role_of "follower" = Server.Follower);
  check "standalone" true (role_of "standalone" = Server.Standalone);
  List.iter
    (fun bad ->
      match role_of bad with
      | _ -> Alcotest.failf "role %S accepted" bad
      | exception Invalid_argument _ -> ())
    [ "primray"; "Primary"; "" ]

let must = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Validate.to_string e)

(* A fresh store directory [wavesyn-<name>-<pid>] for [f], removed
   afterwards. *)
let with_store_dir name f =
  let dir =
    Printf.sprintf "%s/wavesyn-%s-%d"
      (Filename.get_temp_dir_name ())
      name (Unix.getpid ())
  in
  let rm_dir () =
    if Sys.file_exists dir then begin
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  rm_dir ();
  Fun.protect ~finally:rm_dir (fun () -> f dir)

(* A live server's write count has one owner, the [update.applied]
   counter: [stats.updates] reads it, and it moves in step with the
   journal sequence and the [update.seq] gauge across an UPDATE, an
   INGEST and refused writes. *)
let test_updates_one_count () =
  with_store_dir "updates" @@ fun dir ->
  let scfg =
    Supervisor.config ~checkpoint_every:1_000_000 ~recut_every:1_000_000
      ~sync:false ~dir ~n:16 ~budget:8 Metrics.Abs
  in
  let sup = must (Supervisor.open_store scfg) in
  Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
  let path = sock_path () in
  let server =
    Server.create
      (Server.config ~store:sup ~path
         (Stream_synopsis.current_data (Supervisor.stream sup)))
  in
  let reg = Server.registry server in
  let runner = Domain.spawn (fun () -> Server.run server) in
  let client =
    match Client.connect ~wait_ms:5000. path with
    | Ok c -> c
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.request_one client Wire.Shutdown);
      Client.close client;
      ignore (Domain.join runner))
  @@ fun () ->
  let agree what want =
    checki (what ^ ": stats.updates") want (Server.stats server).Server.updates;
    checki (what ^ ": update.applied") want
      (Metric.counter_value (Registry.counter reg "update.applied"));
    checki (what ^ ": journal seq") want (Supervisor.seq sup);
    checkf (what ^ ": update.seq") (float_of_int want)
      (Metric.gauge_value (Registry.gauge reg "update.seq"))
  in
  (match expect_one client (Wire.Update { i = 1; delta = 2. }) with
  | Wire.Acked { seq } -> checki "update acked" 1 seq
  | r -> Alcotest.fail ("update: " ^ Wire.describe_reply r));
  agree "after UPDATE" 1;
  (match
     expect_one client (Wire.Ingest [ (2, 1.); (3, -1.5); (4, 0.25) ])
   with
  | Wire.Acked { seq } -> checki "ingest acked" 4 seq
  | r -> Alcotest.fail ("ingest: " ^ Wire.describe_reply r));
  agree "after INGEST" 4;
  (match expect_one client (Wire.Update { i = 99; delta = 1. }) with
  | Wire.Error { code = Wire.Out_of_range; _ } -> ()
  | r -> Alcotest.fail ("refused update: " ^ Wire.describe_reply r));
  (match expect_one client (Wire.Ingest [ (5, 1.); (16, 1.) ]) with
  | Wire.Error { code = Wire.Out_of_range; _ } -> ()
  | r -> Alcotest.fail ("refused ingest: " ^ Wire.describe_reply r));
  agree "after refused writes" 4;
  checki "update.rejected" 2
    (Metric.counter_value (Registry.counter reg "update.rejected"))

(* HANDOFF with no [on_handoff] hook over a follower's live store: the
   server promotes the store itself, acks its sequence, and takes
   writes from then on. *)
let test_handoff_promotes_live_follower () =
  with_store_dir "handoff" @@ fun dir ->
  let scfg =
    Supervisor.config ~checkpoint_every:1_000_000 ~recut_every:1_000_000
      ~sync:false ~dir ~n:16 ~budget:8 Metrics.Abs
  in
  (* Three writes acked as a primary, then reopened as a follower. *)
  let sup = must (Supervisor.open_store scfg) in
  for i = 1 to 3 do
    ignore (must (Supervisor.ingest sup ~i ~delta:2.))
  done;
  Supervisor.close sup;
  let sup = must (Supervisor.open_store ~role:Supervisor.Follower scfg) in
  Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
  let path = sock_path () in
  let ship =
    {
      Server.ship_dir = dir;
      ship_seq = Supervisor.seq sup;
      ship_manifest = Supervisor.manifest_text scfg;
    }
  in
  let server =
    Server.create
      (Server.config ~ship ~role:"follower" ~store:sup ~path
         (Stream_synopsis.current_data (Supervisor.stream sup)))
  in
  let runner = Domain.spawn (fun () -> Server.run server) in
  let client =
    match Client.connect ~wait_ms:5000. path with
    | Ok c -> c
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Client.request_one client Wire.Shutdown);
      Client.close client;
      ignore (Domain.join runner))
  @@ fun () ->
  let role_gauge () =
    match expect_one client Wire.Stats with
    | Wire.Stats_text body -> (
        let row =
          List.find_opt
            (fun line ->
              match String.split_on_char ' ' line with
              | _ :: rest -> List.mem "server.role" rest
              | [] -> false)
            (String.split_on_char '\n' body)
        in
        match row with
        | Some line -> (
            match
              List.filter (( <> ) "") (String.split_on_char ' ' line)
            with
            | [ _; _; value; _ ] -> value
            | _ -> Alcotest.fail ("server.role row: " ^ line))
        | None -> Alcotest.fail "no server.role row")
    | r -> Alcotest.fail ("stats: " ^ Wire.describe_reply r)
  in
  checks "follower gauge" "1" (role_gauge ());
  (match expect_one client (Wire.Update { i = 0; delta = 1. }) with
  | Wire.Error { code = Wire.Unanswerable; _ } -> ()
  | r -> Alcotest.fail ("update before handoff: " ^ Wire.describe_reply r));
  (* An invalid write is refused by the write rule before the store's
     role is consulted, as an invalid INGEST is. *)
  (match expect_one client (Wire.Update { i = 99; delta = 1. }) with
  | Wire.Error { code = Wire.Out_of_range; _ } -> ()
  | r ->
      Alcotest.fail ("invalid update on a follower: " ^ Wire.describe_reply r));
  (match expect_one client Wire.Handoff with
  | Wire.Handoff_ack { seq; role } ->
      checki "ack carries the store's sequence" 3 seq;
      checks "ack role" "primary" role
  | r -> Alcotest.fail ("handoff: " ^ Wire.describe_reply r));
  check "store promoted" true (Supervisor.role sup = Supervisor.Primary);
  checks "primary gauge" "0" (role_gauge ());
  match expect_one client (Wire.Update { i = 0; delta = 1. }) with
  | Wire.Acked { seq } -> checki "update after handoff" 4 seq
  | r -> Alcotest.fail ("update after handoff: " ^ Wire.describe_reply r)

let test_client_connect_error () =
  match Client.connect (sock_path ()) with
  | Error (Validate.Io_error _) -> ()
  | Error e -> Alcotest.fail ("unexpected error: " ^ Validate.to_string e)
  | Ok _ -> Alcotest.fail "connected to a nonexistent socket"

(* --- loadgen mix parsing --- *)

let test_mix_of_string () =
  (match Loadgen.mix_of_string "point=4,range=3,quantile=2,ping=1" with
  | Ok m -> check "full spec" true (m = Loadgen.default_mix)
  | Error reason -> Alcotest.fail reason);
  (match Loadgen.mix_of_string "point=1" with
  | Ok m ->
      check "omitted kinds are zero" true
        (m
        = {
            Loadgen.point = 1;
            range = 0;
            quantile = 0;
            ping = 0;
            update = 0;
            selectivity = 0;
          })
  | Error reason -> Alcotest.fail reason);
  List.iter
    (fun s ->
      match Loadgen.mix_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ s))
    [ ""; "point"; "point=x"; "point=-1"; "nope=3"; "point=0,range=0" ];
  (match Loadgen.mix_of_string "point=2,update=3" with
  | Ok m ->
      check "update weight parses" true
        (m
        = {
            Loadgen.point = 2;
            range = 0;
            quantile = 0;
            ping = 0;
            update = 3;
            selectivity = 0;
          })
  | Error reason -> Alcotest.fail reason)

(* run_multi with a single connection draws exactly the schedule run
   always drew: the historical single-connection transcript (and its
   pinned CRCs) is the nconns=1 special case, not a near miss. *)
let test_run_multi_single_equals_run () =
  (* A pure in-process echo rpc keeps this a schedule test — no
     server, no socket, fully deterministic. *)
  let echo req =
    let reply_of = function
      | Wire.Point _ -> Wire.Value 1.5
      | Wire.Range _ -> Wire.Value 2.5
      | Wire.Quantile _ -> Wire.Quantile_pos 3
      | Wire.Ping -> Wire.Pong
      | Wire.Update _ -> Wire.Acked { seq = 9 }
      | _ -> Wire.Error { code = Wire.Internal; message = "unexpected" }
    in
    match req with
    | Wire.Batch rs -> Ok (List.map reply_of rs)
    | r -> Ok [ reply_of r ]
  in
  let mix = { Loadgen.default_mix with update = 2 } in
  let buf_a = Buffer.create 1024 and buf_b = Buffer.create 1024 in
  let run_summary =
    match
      Loadgen.run ~rpc:echo ~seed:23 ~requests:30 ~batch:4 ~n:64 ~mix
        ~out:(Buffer.add_string buf_a) ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  let multi_summary =
    match
      Loadgen.run_multi ~rpcs:[| echo |] ~seed:23 ~requests:30 ~batch:4 ~n:64
        ~mix ~out:(Buffer.add_string buf_b) ()
    with
    | Ok m -> m
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  checks "one-connection run_multi = run, byte for byte"
    (Buffer.contents buf_a) (Buffer.contents buf_b);
  checks "total CRC equal" run_summary.Loadgen.transcript_crc
    multi_summary.Loadgen.totals.Loadgen.transcript_crc;
  checki "one connection fingerprinted" 1
    (Array.length multi_summary.Loadgen.connection_crcs);
  checks "the sole connection's CRC is the whole transcript's"
    run_summary.Loadgen.transcript_crc
    multi_summary.Loadgen.connection_crcs.(0);
  (* Multi-connection runs are reproducible, and the per-connection
     subsequences cover the whole transcript. *)
  let multi () =
    let buf = Buffer.create 1024 in
    match
      Loadgen.run_multi
        ~rpcs:[| echo; echo; echo |]
        ~seed:23 ~requests:30 ~batch:4 ~n:64 ~mix
        ~out:(Buffer.add_string buf) ()
    with
    | Ok m -> (Buffer.contents buf, m)
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  let ta, ma = multi () in
  let tb, mb = multi () in
  checks "three-connection interleave reproducible" ta tb;
  check "per-connection CRCs reproducible" true
    (ma.Loadgen.connection_crcs = mb.Loadgen.connection_crcs);
  check "the interleave differs from the single-connection schedule" true
    (ta <> Buffer.contents buf_a)

let () =
  Alcotest.run "server"
    [
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "float exactness" `Quick test_wire_float_exact;
          Alcotest.test_case "corruption and truncation" `Quick
            test_wire_corruption;
          Alcotest.test_case "batch constraints" `Quick
            test_wire_batch_constraints;
          Alcotest.test_case "storm artifact codec" `Quick test_wire_storm_codec;
          Alcotest.test_case "text mode" `Quick test_wire_text;
        ] );
      ( "admit",
        [
          Alcotest.test_case "bound and drain" `Quick
            test_admit_bound_and_drain;
          Alcotest.test_case "pressure trajectory" `Quick
            test_admit_pressure_trajectory;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "query kinds and errors" `Quick test_end_to_end;
          Alcotest.test_case "batch overload shedding" `Quick
            test_batch_and_overload;
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "connect error" `Quick test_client_connect_error;
          Alcotest.test_case "config role" `Quick test_config_role;
          Alcotest.test_case "updates have one count" `Quick
            test_updates_one_count;
          Alcotest.test_case "handoff promotes a live follower" `Quick
            test_handoff_promotes_live_follower;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "mix parsing" `Quick test_mix_of_string;
          Alcotest.test_case "multi-connection schedule" `Quick
            test_run_multi_single_equals_run;
        ] );
    ]
