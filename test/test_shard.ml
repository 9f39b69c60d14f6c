(* Sharded serving and TCP transport suite: endpoint parsing, the
   nonblocking TCP connect path, byte-at-a-time frame reassembly, the
   key-range partition map, and the headline scatter-gather proofs —
   merged replies byte-identical across shard counts {1, 2, 4} and
   front-end pool sizes, and a shard primary killed mid-write-storm
   failing over to its warm standby with the front-end transcript and
   the final composed state byte-identical to a failure-free run.

   Run via `dune runtest` or in isolation via `dune build @shard`.
   A watchdog alarm fails the whole suite rather than letting a hung
   socket test wedge the runner. *)

module Validate = Wavesyn_robust.Validate
module Journal = Wavesyn_robust.Journal
module Snapshot = Wavesyn_robust.Snapshot
module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Prng = Wavesyn_util.Prng
module Pool = Wavesyn_par.Pool
module Wire = Wavesyn_server.Wire
module Conn = Wavesyn_server.Conn
module Endpoint = Wavesyn_server.Endpoint
module Shard = Wavesyn_server.Shard
module Server = Wavesyn_server.Server
module Client = Wavesyn_server.Client
module Failover = Wavesyn_server.Failover
module Replica = Wavesyn_server.Replica
module Loadgen = Wavesyn_server.Loadgen

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let check_sl = Alcotest.(check (list string))

(* Watchdog: a hung socket test must fail the suite, not wedge it. *)
let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "shard watchdog: a socket test hung past the deadline";
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
        (Printf.sprintf "wavesyn_shard_%d_%d" (Unix.getpid ()) !counter)
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
    Printf.sprintf "%s/wavesyn-shard-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !counter

(* TCP ports: spread by pid so parallel test runners do not collide,
   bumped per test so TIME_WAIT from an earlier test never interferes. *)
let tcp_port =
  let counter = ref 0 in
  fun () ->
    incr counter;
    20210 + (Unix.getpid () mod 9000) + (41 * !counter)

let must = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Validate.to_string e)

let must_s = function Ok v -> v | Error reason -> Alcotest.fail reason

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

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

(* Integer-valued data: with budget >= n every synopsis in the
   topology reconstructs it exactly, partial sums are exact in float
   arithmetic in any association order, and the sharded merge is
   byte-identical to the unsharded answer — the determinism contract
   of docs/SERVING.md. Positive so quantiles are answerable. *)
let exact_data n = Array.init n (fun i -> float_of_int (((i * 37) mod 101) + 3))

(* --- endpoint strings --- *)

let test_endpoint_parse () =
  (match Endpoint.parse "/tmp/x.sock" with
  | Ok (Endpoint.Unix_path p) -> checks "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "plain path must parse as a unix socket");
  (match Endpoint.parse "tcp:127.0.0.1:8080" with
  | Ok (Endpoint.Tcp { host; port }) ->
      checks "tcp host" "127.0.0.1" host;
      checki "tcp port" 8080 port
  | _ -> Alcotest.fail "tcp endpoint must parse");
  (match Endpoint.parse "tcp::9090" with
  | Ok (Endpoint.Tcp { host; port }) ->
      checks "empty host defaults to loopback" "127.0.0.1" host;
      checki "port with empty host" 9090 port
  | _ -> Alcotest.fail "tcp::PORT must parse");
  check "port 0 rejected" true (Result.is_error (Endpoint.parse "tcp:h:0"));
  check "port 65536 rejected" true
    (Result.is_error (Endpoint.parse "tcp:h:65536"));
  check "missing port rejected" true
    (Result.is_error (Endpoint.parse "tcp:hostonly"));
  (match Endpoint.parse "tcp:localhost:80" with
  | Ok ep -> check "localhost resolves" true (Result.is_ok (Endpoint.sockaddr ep))
  | Error e -> Alcotest.fail e);
  match Endpoint.parse "tcp:no-such-host.example:80" with
  | Ok ep ->
      check "non-numeric host is a structured error, not an exception" true
        (Result.is_error (Endpoint.sockaddr ep))
  | Error e -> Alcotest.fail e

(* --- TCP transport --- *)

(* Regression (fails on the pre-TCP client): the target is an endpoint
   string, the connect is nonblocking (EINPROGRESS finished via
   select + SO_ERROR), and ECONNREFUSED from a listener that is still
   binding is retried under the seeded backoff — the client here races
   the server domain to the port and must win anyway. *)
let test_tcp_roundtrip_and_connect_retry () =
  let n = 32 in
  let data = exact_data n in
  let ep = Printf.sprintf "tcp:127.0.0.1:%d" (tcp_port ()) in
  let server = Server.create (Server.config ~budget:n ~path:ep data) in
  let runner = spawn_server server in
  let c = connect ep in
  Fun.protect
    ~finally:(fun () ->
      Client.close c;
      shutdown_via ep;
      join_server runner)
  @@ fun () ->
  (match must (Client.request_one c Wire.Ping) with
  | Wire.Pong -> ()
  | r -> Alcotest.fail ("ping answered " ^ Wire.describe_reply r));
  let exact = Array.fold_left ( +. ) 0. data in
  match must (Client.request_one c (Wire.Range { lo = 0; hi = n - 1 })) with
  | Wire.Value v ->
      check "range over TCP is the exact sum" true (v = exact)
  | r -> Alcotest.fail ("range answered " ^ Wire.describe_reply r)

(* Regression (fails on the pre-TCP client): a dead TCP port with no
   retry budget must surface a structured Io_error immediately — not a
   raised Unix_error, not a hang. *)
let test_tcp_connect_refused () =
  let ep = Printf.sprintf "tcp:127.0.0.1:%d" (tcp_port ()) in
  match Client.connect ~wait_ms:0. ep with
  | Error (Validate.Io_error _) -> ()
  | Ok _ -> Alcotest.fail "connected to a dead port"
  | Error e -> Alcotest.fail ("wrong error class: " ^ Validate.to_string e)

(* A Unix socket that is bound late — as a sharded server's shard
   domain binds only after its cut — is found within [wait_ms]: the
   client polls a missing or refusing socket path at least every
   millisecond rather than backing off, and no retry sleep runs past
   the deadline. *)
let test_unix_connect_late_bind () =
  let path = sock_path () in
  let binder =
    Domain.spawn (fun () ->
        Unix.sleepf 0.02;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 1;
        (fd, Unix.gettimeofday ()))
  in
  let wait_ms = 2000. in
  let t0 = Unix.gettimeofday () in
  let got = Client.connect ~wait_ms path in
  let connected = Unix.gettimeofday () in
  let fd, bound = Domain.join binder in
  Fun.protect
    ~finally:(fun () ->
      (match got with Ok c -> Client.close c | Error _ -> ());
      Unix.close fd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
  @@ fun () ->
  (match got with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("late bind: " ^ Validate.to_string e));
  check "connected after the bind" true (connected >= bound);
  check "connected within wait_ms" true
    ((connected -. t0) *. 1000. < wait_ms);
  (* No listener at all: the refusal comes back once [wait_ms] is
     spent, not a backoff step later. *)
  let t0 = Unix.gettimeofday () in
  (match Client.connect ~wait_ms:30. (sock_path ()) with
  | Error (Validate.Io_error _) -> ()
  | Ok _ -> Alcotest.fail "connected to a missing socket"
  | Error e -> Alcotest.fail ("wrong error class: " ^ Validate.to_string e));
  let spent_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  check (Printf.sprintf "gave up after %.1f ms (>= 30)" spent_ms) true
    (spent_ms >= 30.)

(* The port-taken path: binding a second server on a live port is a
   structured Io_error from Server.run (the cram test pins the CLI
   exit code), and SO_REUSEADDR lets the port be rebound immediately
   after the first server stops. *)
let test_tcp_port_taken_and_rebind () =
  let n = 16 in
  let data = exact_data n in
  let ep = Printf.sprintf "tcp:127.0.0.1:%d" (tcp_port ()) in
  let first = Server.create (Server.config ~budget:n ~path:ep data) in
  let runner = spawn_server first in
  let c = connect ep in
  Client.close c;
  (match Server.run (Server.create (Server.config ~budget:n ~path:ep data)) with
  | Error (Validate.Io_error { path; reason }) ->
      checks "error names the endpoint" ep path;
      check "reason is the bind failure" true (contains reason "in use")
  | Ok () -> Alcotest.fail "second bind on a live port succeeded"
  | Error e -> Alcotest.fail ("wrong error class: " ^ Validate.to_string e));
  shutdown_via ep;
  join_server runner;
  (* TIME_WAIT from the connection just closed must not block the
     rebind: SO_REUSEADDR is set before bind. *)
  let again = Server.create (Server.config ~budget:n ~path:ep data) in
  let runner = spawn_server again in
  let c = connect ep in
  (match must (Client.request_one c Wire.Ping) with
  | Wire.Pong -> ()
  | r -> Alcotest.fail ("rebound server answered " ^ Wire.describe_reply r));
  Client.close c;
  shutdown_via ep;
  join_server runner

(* --- byte-at-a-time frame reassembly (TCP segmentation) --- *)

(* Regression for the read path under TCP segmentation: a frame
   header (and every other boundary) split across reads must buffer,
   never corrupt — fed one byte at a time, the strictest segmentation
   a stream can produce. *)
let test_conn_one_byte_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  let conn = Conn.create ~id:0 ~now_ms:0. b in
  let requests =
    [
      Wire.Ping;
      Wire.Range { lo = 3; hi = 9 };
      Wire.Update { i = 4; delta = 0.5 };
      Wire.Batch [ Wire.Point 1; Wire.Quantile 0.5 ];
    ]
  in
  let bytes = String.concat "" (List.map Wire.encode_request requests) in
  let got = ref [] in
  String.iter
    (fun ch ->
      ignore (Unix.write_substring a (String.make 1 ch) 0 1);
      let events, status = Conn.read conn ~now_ms:0. in
      (match status with
      | `Eof -> Alcotest.fail "connection ended mid-frame"
      | `More -> ());
      List.iter
        (function
          | Conn.Request r -> got := Wire.describe_request r :: !got
          | Conn.Bad_line reason ->
              Alcotest.fail ("fell back to text mode: " ^ reason)
          | Conn.Corrupt reason ->
              Alcotest.fail ("split frame read as corrupt: " ^ reason))
        events)
    bytes;
  check_sl "every frame reassembled, in order"
    (List.map Wire.describe_request requests)
    (List.rev !got)

let test_conn_one_byte_text_lines () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
  @@ fun () ->
  let conn = Conn.create ~id:1 ~now_ms:0. b in
  let got = ref [] in
  String.iter
    (fun ch ->
      ignore (Unix.write_substring a (String.make 1 ch) 0 1);
      let events, _ = Conn.read conn ~now_ms:0. in
      List.iter
        (function
          | Conn.Request r -> got := Wire.describe_request r :: !got
          | Conn.Bad_line reason -> Alcotest.fail ("bad line: " ^ reason)
          | Conn.Corrupt reason -> Alcotest.fail ("corrupt: " ^ reason))
        events)
    "PING\nPOINT 3\nRANGE 0 7\n";
  check_sl "text lines reassembled byte by byte"
    [ "PING"; "POINT 3"; "RANGE 0 7" ]
    (List.rev !got)

(* --- the partition map --- *)

let ranges_to_string ranges =
  String.concat ","
    (List.map (fun { Shard.lo; hi } -> Printf.sprintf "%d-%d" lo hi) ranges)

let test_partition_map () =
  checks "even split" "0-15,16-31,32-47,48-63"
    (ranges_to_string (must_s (Shard.split ~n:64 ~shards:4)));
  checks "single shard" "0-63" (ranges_to_string (must_s (Shard.split ~n:64 ~shards:1)));
  check "non-power-of-two count rejected" true
    (Result.is_error (Shard.split ~n:64 ~shards:3));
  check "more shards than cells rejected" true
    (Result.is_error (Shard.split ~n:4 ~shards:8));
  checks "explicit uneven ranges" "0-31,32-47,48-63"
    (ranges_to_string (must_s (Shard.parse_ranges ~n:64 "0-31,32-47,48-63")));
  check "non-power-of-two range length rejected" true
    (Result.is_error (Shard.parse_ranges ~n:64 "0-15,16-63"));
  check "gap rejected" true
    (Result.is_error (Shard.parse_ranges ~n:64 "0-15,17-63"));
  check "short cover rejected" true
    (Result.is_error (Shard.parse_ranges ~n:64 "0-31"));
  check "non-power-of-two length rejected" true
    (Result.is_error (Shard.parse_ranges ~n:64 "0-15,16-39,40-63"));
  check "garbage rejected" true
    (Result.is_error (Shard.parse_ranges ~n:64 "zero-to-many"));
  let ranges = must_s (Shard.parse_ranges ~n:64 "0-31,32-47,48-63") in
  check "hand-built ranges validate" true
    (Result.is_ok (Shard.check_ranges ~n:64 ranges))

(* --- scatter-gather topologies --- *)

(* Spawn one static shard server per range plus a scatter-gather
   front-end over client connections to them; hand [f] the public
   path, then tear the whole topology down. *)
let with_sharded_topology ?(queue_bound = 64) ?cache ~domains ~budget ~data
    ~shards f =
  let n = Array.length data in
  let ranges = must_s (Shard.split ~n ~shards) in
  let shard_paths = List.map (fun _ -> sock_path ()) ranges in
  let runners =
    List.map2
      (fun path { Shard.lo; hi } ->
        let slice = Array.sub data lo (hi - lo + 1) in
        spawn_server
          (Server.create (Server.config ~budget ~queue_bound ~path slice)))
      shard_paths ranges
  in
  let clients = List.map (fun p -> connect p) shard_paths in
  let rpcs =
    Array.of_list (List.map (fun c req -> Client.request c req) clients)
  in
  let router = must_s (Shard.router ~n ~ranges rpcs) in
  let pool = Pool.create ~domains () in
  let front_path = sock_path () in
  let front =
    Server.create ~pool ~router
      (Server.config ~budget ~queue_bound ?cache ~path:front_path data)
  in
  let front_runner = spawn_server front in
  Fun.protect
    ~finally:(fun () ->
      shutdown_via front_path;
      join_server front_runner;
      Shard.shutdown router;
      List.iter Client.close clients;
      List.iter join_server runners;
      Pool.shutdown pool)
  @@ fun () -> f front_path

(* Fixed probe schedule: every cell, ranges crossing every shard
   boundary, a quantile grid, and the whole out-of-domain error
   surface — the router must mirror the unsharded messages exactly. *)
let probes n =
  List.concat
    [
      List.init n (fun i -> Wire.Point i);
      [ Wire.Point (-1); Wire.Point n ];
      [
        Wire.Range { lo = 0; hi = n - 1 };
        Wire.Range { lo = 3; hi = 3 };
        Wire.Range { lo = 1; hi = n - 2 };
        Wire.Range { lo = (n / 4) - 1; hi = n / 4 };
        Wire.Range { lo = (n / 2) - 2; hi = (n / 2) + 3 };
        Wire.Range { lo = 5; hi = 2 };
        Wire.Range { lo = -1; hi = 4 };
        Wire.Range { lo = 0; hi = n };
      ];
      List.map
        (fun q -> Wire.Quantile q)
        [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 1.; -0.5; 1.5; Float.nan ];
      [ Wire.Ping ];
    ]

let ask path reqs =
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.concat_map
    (fun r -> List.map Wire.describe_reply (must (Client.request c r)))
    reqs

let transcript ~seed ~requests ~batch ~n path =
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let buf = Buffer.create 4096 in
  let summary =
    must
      (Loadgen.run
         ~rpc:(fun req -> Client.request c req)
         ~seed ~requests ~batch ~n ~mix:Loadgen.default_mix
         ~out:(Buffer.add_string buf) ())
  in
  (Buffer.contents buf, summary)

(* The headline property: merged replies are byte-identical across
   shard counts {1, 2, 4} and front-end pool sizes {1, 4}, and equal
   to the unsharded server's on the same data. *)
let test_scatter_gather_byte_identity () =
  let n = 64 in
  let data = exact_data n in
  let unsharded_path = sock_path () in
  let unsharded =
    Server.create (Server.config ~budget:n ~path:unsharded_path data)
  in
  let runner = spawn_server unsharded in
  let reference_replies, (reference_transcript, reference_summary) =
    Fun.protect
      ~finally:(fun () ->
        shutdown_via unsharded_path;
        join_server runner)
    @@ fun () ->
    ( ask unsharded_path (probes n),
      transcript ~seed:11 ~requests:90 ~batch:3 ~n unsharded_path )
  in
  List.iter
    (fun (shards, domains) ->
      let tag = Printf.sprintf " (shards %d, pool %d)" shards domains in
      with_sharded_topology ~domains ~budget:n ~data ~shards @@ fun path ->
      check_sl ("probe replies byte-identical" ^ tag) reference_replies
        (ask path (probes n));
      let t, summary = transcript ~seed:11 ~requests:90 ~batch:3 ~n path in
      checks ("loadgen transcript byte-identical" ^ tag) reference_transcript t;
      checks
        ("transcript CRC byte-identical" ^ tag)
        reference_summary.Loadgen.transcript_crc summary.Loadgen.transcript_crc)
    [ (1, 1); (2, 1); (2, 4); (4, 1); (4, 4) ]

(* STATS through the front-end: its own table first, then every
   shard's section in shard-index order — never arrival order. *)
let test_stats_sections_positional () =
  let n = 64 in
  with_sharded_topology ~domains:1 ~budget:n ~data:(exact_data n) ~shards:4
  @@ fun path ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match must (Client.request_one c Wire.Stats) with
  | Wire.Stats_text body ->
      check "front-end table present" true (contains body "server.requests");
      let index_of needle =
        let rec go i =
          if i + String.length needle > String.length body then
            Alcotest.fail (needle ^ " missing from merged STATS")
          else if String.sub body i (String.length needle) = needle then i
          else go (i + 1)
        in
        go 0
      in
      let positions =
        List.map index_of
          [
            "== shard 0 [0, 15] ==";
            "== shard 1 [16, 31] ==";
            "== shard 2 [32, 47] ==";
            "== shard 3 [48, 63] ==";
          ]
      in
      check "sections in shard-index order" true
        (positions = List.sort compare positions)
  | r -> Alcotest.fail ("STATS answered " ^ Wire.describe_reply r)

(* Overload parity: same queue bound, same schedule — the front-end
   sheds the same requests with byte-identical OVERLOAD lines (bound,
   depth, and the tier string the RETIER broadcast keeps on the
   front-end's ladder). Answered VALUEs are compared only for schedule
   (the request side of every line): a degraded tier's approximation
   error depends on the decomposition domain, so under forced
   degradation the sharded and unsharded answers agree within the
   tier's bound but not bit-for-bit — the byte-identity contract
   covers exactly-reconstructing tiers (see docs/SERVING.md). *)
let test_overload_parity () =
  let n = 64 in
  let data = exact_data n in
  let unsharded_path = sock_path () in
  let unsharded =
    Server.create
      (Server.config ~budget:n ~queue_bound:4 ~path:unsharded_path data)
  in
  let runner = spawn_server unsharded in
  let reference, reference_summary =
    Fun.protect
      ~finally:(fun () ->
        shutdown_via unsharded_path;
        join_server runner)
    @@ fun () -> transcript ~seed:23 ~requests:64 ~batch:8 ~n unsharded_path
  in
  check "the schedule actually sheds" true
    (reference_summary.Loadgen.overloads > 0);
  with_sharded_topology ~queue_bound:4 ~domains:1 ~budget:n ~data ~shards:2
  @@ fun path ->
  let t, summary = transcript ~seed:23 ~requests:64 ~batch:8 ~n path in
  let split_lines s = String.split_on_char '\n' s in
  let request_side line =
    match String.index_opt line '>' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let ref_lines = split_lines reference and got_lines = split_lines t in
  checki "same transcript length" (List.length ref_lines)
    (List.length got_lines);
  List.iter2
    (fun expected got ->
      checks "same request schedule" (request_side expected)
        (request_side got);
      if contains expected "OVERLOAD" || contains got "OVERLOAD" then
        checks "OVERLOAD lines byte-identical" expected got)
    ref_lines got_lines;
  checki "same shed count" reference_summary.Loadgen.overloads
    summary.Loadgen.overloads

(* --- the batched fan-out --- *)

(* How an in-process stub shard treats a BATCH frame: honestly, with
   every second entry answered ERROR or OVERLOAD, or failing the whole
   frame as a transport error or a miscounted reply list. Plain frames
   are always answered honestly. *)
type batch_mode = Honest | Entry_error | Entry_overload | Transport | Short

let batch_modes =
  [
    ("honest", Honest);
    ("entry error", Entry_error);
    ("entry overload", Entry_overload);
    ("transport failure", Transport);
    ("miscounted batch", Short);
  ]

(* Stub shards over float slices: a POINT is its cell, a RANGE the
   left-to-right sum of its cells, and with [refuse] the last shard
   refuses its local cell 0 on every frame (an error the router must
   pass through). Each shard records every frame it receives in
   [frames.(k)], newest first. *)
let stub_rpcs ?(refuse = true) ~mode ~frames ~ranges data =
  let last = List.length ranges - 1 in
  Array.of_list
    (List.mapi
       (fun k { Shard.lo; hi } ->
         let slice = Array.sub data lo (hi - lo + 1) in
         let m = Array.length slice in
         let one = function
           | Wire.Point 0 when refuse && k = last ->
               Wire.Error { code = Wire.Unanswerable; message = "stub refuses 0" }
           | Wire.Point i when i >= 0 && i < m -> Wire.Value slice.(i)
           | Wire.Range { lo; hi } when 0 <= lo && lo <= hi && hi < m ->
               let acc = ref 0. in
               for i = lo to hi do
                 acc := !acc +. slice.(i)
               done;
               Wire.Value !acc
           | r ->
               Wire.Error
                 { code = Wire.Bad_request; message = Wire.describe_request r }
         in
         fun req ->
           frames.(k) <- req :: frames.(k);
           match (req, mode) with
           | Wire.Batch _, Transport ->
               Error (Validate.Io_error { path = "stub"; reason = "reset" })
           | Wire.Batch reqs, Short -> Ok (List.map one (List.tl reqs))
           | Wire.Batch reqs, (Entry_error | Entry_overload) ->
               Ok
                 (List.mapi
                    (fun j r ->
                      if j mod 2 = 0 then one r
                      else if mode = Entry_error then
                        Wire.Error { code = Wire.Internal; message = "entry" }
                      else Wire.Overload { bound = 1; depth = 1; tier = "t" })
                    reqs)
           | Wire.Batch reqs, Honest -> Ok (List.map one reqs)
           | r, _ -> Ok [ one r ])
       ranges)

(* A seeded read: in-domain and edge cells, ranges crossing shard
   boundaries, inverted and out-of-domain ranges, quantiles with
   refused q — and, one time in three, a repeat of a request already in
   the round. *)
let random_read rng ~n round =
  let cell () =
    match Prng.int rng 8 with
    | 0 -> 0
    | 1 -> n - 1
    | 2 -> Prng.int rng 3 - 2
    | 3 -> n + Prng.int rng 2
    | _ -> Prng.int rng n
  in
  match (round, Prng.int rng 3) with
  | _ :: _, 0 -> List.nth round (Prng.int rng (List.length round))
  | _ -> (
      match Prng.int rng 7 with
      | 0 | 1 | 2 -> Wire.Point (cell ())
      | 3 -> Wire.Quantile (if Prng.int rng 8 = 0 then 1.5 else Prng.float rng 1.)
      | _ -> Wire.Range { lo = cell (); hi = cell () })

let random_round rng ~n ~size =
  List.rev
    (List.fold_left
       (fun acc _ -> random_read rng ~n acc :: acc)
       [] (List.init size Fun.id))

(* The differential proof: over seeded rounds, [eval_round]'s replies
   are bit-equal to the replies of [eval] on each request alone — for
   1, 2 and 4 shards, memo on and off, and every stub batch mode — and
   the memo counts the same lookups. [eval] on one request never sends
   a BATCH. *)
let test_eval_round_differential () =
  let n = 64 in
  let data =
    let rng = Prng.create ~seed:5 in
    Array.init n (fun _ -> Prng.float rng 10. -. 2.)
  in
  List.iter
    (fun ((label, mode), shards, memo) ->
      let tag = Printf.sprintf " (%s, %d shards, memo %b)" label shards memo in
      let ranges = must_s (Shard.split ~n ~shards) in
      let router frames =
        let r =
          must_s (Shard.router ~n ~ranges (stub_rpcs ~mode ~frames ~ranges data))
        in
        if memo then Shard.set_cache r ~cap:4096;
        r
      in
      let batched_frames = Array.make shards [] in
      let single_frames = Array.make shards [] in
      let batched = router batched_frames and single = router single_frames in
      let rng = Prng.create ~seed:(17 + shards) in
      for _ = 1 to 60 do
        let round = random_round rng ~n ~size:(1 + Prng.int rng 12) in
        let got = Shard.eval_round batched (Array.of_list round) in
        let want = List.map (Shard.eval single) round in
        List.iteri
          (fun i w ->
            checks
              (Printf.sprintf "reply to %s%s"
                 (Wire.describe_request (List.nth round i)) tag)
              (Wire.encode_reply w)
              (Wire.encode_reply got.(i)))
          want
      done;
      checki ("memo hits" ^ tag) (Shard.memo_hits single)
        (Shard.memo_hits batched);
      checki ("memo misses" ^ tag) (Shard.memo_misses single)
        (Shard.memo_misses batched);
      check ("single requests travel as plain frames" ^ tag) true
        (Array.for_all
           (List.for_all (function Wire.Batch _ -> false | _ -> true))
           single_frames))
    (List.concat_map
       (fun mode ->
         List.concat_map
           (fun shards -> [ (mode, shards, false); (mode, shards, true) ])
           [ 1; 2; 4 ])
       batch_modes)

(* POINT and RANGE sub-requests reach each shard in at most one frame
   per round — repeats within a round included — and that frame carries
   no more entries than the round has requests. *)
let test_one_frame_per_shard_per_round () =
  let n = 64 in
  let data = Array.init n float_of_int in
  List.iter
    (fun (shards, memo) ->
      let tag = Printf.sprintf " (%d shards, memo %b)" shards memo in
      let ranges = must_s (Shard.split ~n ~shards) in
      let frames = Array.make shards [] in
      let router =
        must_s
          (Shard.router ~n ~ranges
             (stub_rpcs ~refuse:false ~mode:Honest ~frames ~ranges data))
      in
      if memo then Shard.set_cache router ~cap:4096;
      let rng = Prng.create ~seed:(3 + shards) in
      for _ = 1 to 40 do
        let round =
          Array.of_list
            (List.map
               (function
                 | Wire.Quantile _ -> Wire.Point (Prng.int rng n) | r -> r)
               (random_round rng ~n ~size:(1 + Prng.int rng 16)))
        in
        let before = Array.map List.length frames in
        ignore (Shard.eval_round router round);
        Array.iteri
          (fun k fs ->
            let sent = List.length fs - before.(k) in
            check (Printf.sprintf "shard %d: %d frames%s" k sent tag) true
              (sent <= 1);
            match fs with
            | Wire.Batch entries :: _ when sent = 1 ->
                check ("entries within the round's size" ^ tag) true
                  (List.length entries <= Array.length round)
            | _ -> ())
          frames
      done)
    [ (1, false); (2, false); (2, true); (4, false); (4, true) ]

(* A sub-range two requests of one round need travels once with the
   memo on: the second copy is a memo hit. Without the memo each copy
   keeps its own entry. The replies are those of per-request [eval]. *)
let test_repeated_subrange_queued_once () =
  let n = 8 in
  let data = Array.init n (fun i -> float_of_int (i * i)) in
  let ranges = must_s (Shard.split ~n ~shards:2) in
  let round =
    [| Wire.Range { lo = 1; hi = 3 }; Wire.Range { lo = 1; hi = 3 }; Wire.Point 2 |]
  in
  let router ~memo frames =
    let r =
      must_s
        (Shard.router ~n ~ranges
           (stub_rpcs ~refuse:false ~mode:Honest ~frames ~ranges data))
    in
    if memo then Shard.set_cache r ~cap:64;
    r
  in
  let want = Array.map (Shard.eval (router ~memo:false (Array.make 2 []))) round in
  List.iter
    (fun (memo, entries) ->
      let tag = Printf.sprintf " (memo %b)" memo in
      let frames = Array.make 2 [] in
      let r = router ~memo frames in
      let got = Shard.eval_round r round in
      Array.iteri
        (fun i w ->
          checks ("reply " ^ string_of_int i ^ tag) (Wire.encode_reply w)
            (Wire.encode_reply got.(i)))
        want;
      checks ("shard 0 frames" ^ tag)
        (Wire.describe_request (Wire.Batch entries))
        (String.concat " | " (List.map Wire.describe_request frames.(0)));
      checki ("shard 1 frames" ^ tag) 0 (List.length frames.(1));
      checki ("memo hits" ^ tag) (if memo then 1 else 0) (Shard.memo_hits r);
      checki ("memo misses" ^ tag) (if memo then 1 else 0) (Shard.memo_misses r))
    [
      (true, [ Wire.Range { lo = 1; hi = 3 }; Wire.Point 2 ]);
      ( false,
        [ Wire.Range { lo = 1; hi = 3 }; Wire.Range { lo = 1; hi = 3 }; Wire.Point 2 ] );
    ]

(* The per-shard sections of a front-end STATS body, in shard-index
   order, each as its lines. *)
let shard_sections body =
  List.rev
    (List.fold_left
       (fun acc line ->
         if String.starts_with ~prefix:"== shard " line then [] :: acc
         else
           match acc with
           | section :: rest -> (line :: section) :: rest
           | [] -> [])
       [] (String.split_on_char '\n' body))

(* The value column of the "kind key value unit" row named [key]. *)
let stats_row section key =
  List.find_map
    (fun line ->
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | _ :: k :: v :: _ when k = key -> Some v
      | _ -> None)
    section

(* A front-end BATCH of exactly [queue_bound] full-domain RANGEs: each
   shard gets them as one BATCH frame of [queue_bound] entries, admits
   every entry and sheds nothing. *)
let test_full_round_never_sheds_a_shard () =
  let n = 64 and queue_bound = 4 in
  let data = exact_data n in
  with_sharded_topology ~queue_bound ~domains:1 ~budget:n ~data ~shards:2
  @@ fun path ->
  let c = connect path in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let full = Wire.Range { lo = 0; hi = n - 1 } in
  let total = Wire.Value (Array.fold_left ( +. ) 0. data) in
  check_sl "every RANGE answered"
    (List.init queue_bound (fun _ -> Wire.describe_reply total))
    (List.map Wire.describe_reply
       (must
          (Client.request c (Wire.Batch (List.init queue_bound (fun _ -> full))))));
  match must (Client.request_one c Wire.Stats) with
  | Wire.Stats_text body ->
      let sections = shard_sections body in
      checki "two shard sections" 2 (List.length sections);
      List.iteri
        (fun k section ->
          let row key = Option.value ~default:"?" (stats_row section key) in
          checks (Printf.sprintf "shard %d sheds nothing" k) "0"
            (row "server.shed");
          checks
            (Printf.sprintf "shard %d admitted every entry" k)
            (string_of_int queue_bound) (row "server.admitted");
          checks
            (Printf.sprintf "shard %d got one BATCH frame" k)
            "1"
            (row "server.requests{kind=\"batch\"}"))
        sections
  | r -> Alcotest.fail ("STATS answered " ^ Wire.describe_reply r)

(* --- refusals and cache keys, on every read backend --- *)

(* Run [f] against an unsharded server and a 2-shard front-end over
   the same data, tagging each run. *)
let on_both_backends ?cache data f =
  let n = Array.length data in
  let path = sock_path () in
  let runner =
    spawn_server (Server.create (Server.config ~budget:n ?cache ~path data))
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown_via path;
      join_server runner)
    (fun () -> f "unsharded" path);
  with_sharded_topology ?cache ~domains:1 ~budget:n ~data ~shards:2
    (f "2 shards")

(* NaN is not in [0, 1]: every backend refuses it as out of range
   instead of bisecting to the last cell. *)
let test_quantile_nan_refused () =
  on_both_backends [| 1.; 1. |] @@ fun tag path ->
  check_sl ("QUANTILE nan refused, " ^ tag)
    [
      "ERROR out-of-range Quantiles: q must be in [0, 1]";
      "ERROR out-of-range Quantiles: q must be in [0, 1]";
    ]
    (ask path [ Wire.Quantile Float.nan; Wire.Quantile (-.Float.nan) ])

(* Two QUANTILEs whose q print alike under %g answer differently; the
   result cache must tell them apart, so cache-on replies equal
   cache-off replies. *)
let test_cache_keys_on_request_value () =
  let reqs = [ Wire.Quantile 0.5; Wire.Quantile 0.5000001; Wire.Quantile 0.5 ] in
  let replies cache =
    let got = ref [] in
    on_both_backends ~cache [| 1.; 1. |] (fun tag path ->
        got := (tag, ask path reqs) :: !got);
    List.rev !got
  in
  let off = replies false and on = replies true in
  List.iter
    (fun (tag, r) ->
      check_sl ("cache-off replies, " ^ tag) [ "QPOS 0"; "QPOS 1"; "QPOS 0" ] r)
    off;
  List.iter2
    (fun (tag, r_off) (_, r_on) ->
      check_sl ("cache-on = cache-off, " ^ tag) r_off r_on)
    off on

(* --- the sharded failover chaos proof --- *)

(* A primary store with [updates] seeded point updates acknowledged. *)
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

let fingerprint sup =
  Snapshot.encode
    (Snapshot.of_stream ~seq:(Supervisor.seq sup) (Supervisor.stream sup))

(* Catch a bootstrapped standby up from the dead primary's journal on
   disk, then promote it — the on_handoff hook a real deployment wires
   to its replication tailer. *)
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

(* The seeded write schedule: single UPDATEs and INGEST storms across
   the whole key domain, so both shards take writes. *)
let write_frames ~seed ~n ~frames =
  let rng = Prng.create ~seed in
  List.init frames (fun _ ->
      if Prng.int rng 3 = 0 then
        Wire.Ingest
          (List.init
             (2 + Prng.int rng 3)
             (fun _ -> (Prng.int rng n, Prng.float rng 2.0 -. 1.0)))
      else Wire.Update { i = Prng.int rng n; delta = Prng.float rng 2.0 -. 1.0 })

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

(* Two shards over [0, 32): shard 0 a plain live store, shard 1 a
   primary/standby pair behind the front-end's failover client. With
   [crash], the shard-1 primary dies mid-write-storm and the failover
   promotes the standby; the run must complete with the same
   transcript and composed state as the failure-free run. *)
let sharded_failover_run ~domains ~crash () =
  let n = 32 and half = 16 in
  let dir0 = temp_dir () and dir1 = temp_dir () and dir_f = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir0;
      rm_rf dir1;
      rm_rf dir_f)
  @@ fun () ->
  build_store ~dir:dir0 ~n:half ~updates:8 ~seed:21 ();
  build_store ~dir:dir1 ~n:half ~updates:8 ~seed:22 ();
  let sup0, data0, _ = open_live dir0 in
  let sup1, data1, ship1 = open_live dir1 in
  let path0 = sock_path ()
  and path1p = sock_path ()
  and path1s = sock_path ()
  and front_path = sock_path () in
  let shard0 =
    Server.create
      (Server.config ~budget:8 ~store:sup0 ~recut_every:1 ~path:path0 data0)
  in
  let runner0 = spawn_server shard0 in
  let primary =
    Server.create
      (Server.config ~budget:8 ~ship:ship1 ~role:"primary" ~store:sup1
         ~recut_every:1
         ?crash_after:(if crash then Some 7 else None)
         ~path:path1p data1)
  in
  let runner1p = spawn_server primary in
  (* Bootstrap the warm standby from the live shard-1 primary, then
     serve it live so it can take writes once promoted. *)
  let c = connect path1p in
  let sup_f = (must (Replica.bootstrap ~dir:dir_f c)).Replica.store in
  Client.close c;
  let standby =
    Server.create
      ~on_handoff:(catch_up_and_promote ~primary_dir:dir1 sup_f)
      (Server.config ~budget:8
         ~ship:
           {
             Server.ship_dir = dir_f;
             ship_seq = Supervisor.seq sup_f;
             ship_manifest = ship1.Server.ship_manifest;
           }
         ~role:"follower" ~store:sup_f ~recut_every:1 ~path:path1s data1)
  in
  let runner1s = spawn_server standby in
  (* The front-end: shard 0 over a plain client, shard 1 through the
     failover endpoint, global sequences seeded from the stores. *)
  let c0 = connect path0 in
  let fo = Failover.create ~wait_ms:5000. ~standby:path1s path1p in
  let rpcs = [| (fun req -> Client.request c0 req); Failover.rpc fo |] in
  let ranges = [ { Shard.lo = 0; hi = half - 1 }; { Shard.lo = half; hi = n - 1 } ] in
  let router =
    must_s
      (Shard.router ~n
         ~seqs:[| Supervisor.seq sup0; Supervisor.seq sup1 |]
         ~ranges rpcs)
  in
  let pool = Pool.create ~domains () in
  let front =
    Server.create ~pool ~router
      (Server.config ~budget:8 ~recut_every:1 ~path:front_path
         (Array.make n 0.))
  in
  let front_runner = spawn_server front in
  let acked, unsent, t =
    Fun.protect
      ~finally:(fun () ->
        Failover.close fo;
        Pool.shutdown pool)
    @@ fun () ->
    let cf = connect front_path in
    Fun.protect ~finally:(fun () -> Client.close cf) @@ fun () ->
    let frames = write_frames ~seed:31 ~n ~frames:12 in
    let acked, unsent = send_writes (fun r -> Client.request cf r) frames in
    let buf = Buffer.create 4096 in
    let summary =
      must
        (Loadgen.run
           ~rpc:(fun req -> Client.request cf req)
           ~seed:6 ~requests:30 ~batch:3 ~n ~mix:Loadgen.default_mix
           ~out:(Buffer.add_string buf) ())
    in
    ignore summary;
    (acked, unsent, Buffer.contents buf)
  in
  check "failover is transparent through the router" true (unsent = []);
  shutdown_via front_path;
  join_server front_runner;
  shutdown_via path0;
  join_server runner0;
  if crash then begin
    join_server runner1p;
    check "shard-1 primary stopped at the simulated kill" true
      (Server.crashed primary);
    check "the router failed over to the standby" true (Failover.promoted fo);
    Supervisor.crash sup1
  end
  else begin
    shutdown_via path1p;
    join_server runner1p;
    Supervisor.close sup1
  end;
  shutdown_via path1s;
  join_server runner1s;
  (* The composed final state: shard 0 plus whichever shard-1 store
     survived the run. *)
  let state = fingerprint sup0 ^ fingerprint (if crash then sup_f else sup1) in
  Supervisor.close sup0;
  Supervisor.close sup_f;
  (acked, t, state)

let test_sharded_failover_byte_identity () =
  List.iter
    (fun domains ->
      let tag = Printf.sprintf " (pool %d)" domains in
      let ref_acked, ref_transcript, ref_state =
        sharded_failover_run ~domains ~crash:false ()
      in
      let acked, t, state = sharded_failover_run ~domains ~crash:true () in
      checki ("global ACKED sequence identical" ^ tag) ref_acked acked;
      checks ("front-end read transcript byte-identical" ^ tag) ref_transcript
        t;
      checks ("composed store state byte-identical" ^ tag) ref_state state)
    [ 1; 4 ]

(* A router front-end owns no synopsis: [create] refuses a live store
   (whose journal the routed writes would bypass) and pre-cut tiers
   (whose re-cuts would broadcast spurious RETIERs) before any shard
   hears from it. *)
let test_router_refuses_store_and_tiers () =
  let n = 16 in
  let ranges = must_s (Shard.split ~n ~shards:2) in
  let calls = ref 0 in
  let rpcs =
    Array.of_list
      (List.map
         (fun _ _ ->
           incr calls;
           Ok [ Wire.Pong ])
         ranges)
  in
  let router = must_s (Shard.router ~n ~ranges rpcs) in
  let refused what cfg =
    match Server.create ~router cfg with
    | _ -> Alcotest.failf "router accepted %s" what
    | exception Invalid_argument _ -> ()
  in
  refused "tiers" (Server.config ~tiers:2 ~path:(sock_path ()) (Array.make n 0.));
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  build_store ~dir ~n ~updates:3 ~seed:5 ();
  let sup, data, _ = open_live dir in
  Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
  refused "a store" (Server.config ~store:sup ~path:(sock_path ()) data);
  checki "no shard was contacted" 0 !calls;
  checki "the store journaled nothing" 3 (Supervisor.seq sup)

(* One refusal rule for writes: an UPDATE is checked like a one-delta
   INGEST storm before anything is journaled, with the same messages
   on a live server and on a router in front of it. The router refuses
   on its own, so only the writes sent straight to the live server
   reach its [update.rejected] counter. *)
let test_invalid_update_refused () =
  let n = 16 in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  build_store ~dir ~n ~updates:3 ~seed:5 ();
  let sup, data, _ = open_live dir in
  Fun.protect ~finally:(fun () -> Supervisor.close sup) @@ fun () ->
  let live_path = sock_path () and front_path = sock_path () in
  let live =
    spawn_server (Server.create (Server.config ~store:sup ~path:live_path data))
  in
  let c = connect live_path in
  let router =
    must_s
      (Shard.router ~n
         ~seqs:[| Supervisor.seq sup |]
         ~ranges:[ { Shard.lo = 0; hi = n - 1 } ]
         [| (fun req -> Client.request c req) |])
  in
  let front =
    spawn_server
      (Server.create ~router (Server.config ~path:front_path (Array.make n 0.)))
  in
  Fun.protect
    ~finally:(fun () ->
      shutdown_via front_path;
      join_server front;
      Shard.shutdown router;
      Client.close c;
      join_server live)
  @@ fun () ->
  let writes =
    [
      Wire.Update { i = 3; delta = Float.nan };
      Wire.Update { i = 3; delta = Float.infinity };
      Wire.Update { i = n; delta = 1. };
      Wire.Update { i = -1; delta = Float.nan };
      Wire.Ingest [ (2, 1.); (5, Float.nan) ];
    ]
  in
  let expected =
    [
      "ERROR bad-request nan: not finite (NaN/Inf)";
      "ERROR bad-request infinity: not finite (NaN/Inf)";
      "ERROR out-of-range 16: cell out of domain [0, 16)";
      "ERROR out-of-range -1: cell out of domain [0, 16)";
      "ERROR bad-request nan: not finite (NaN/Inf)";
    ]
  in
  check_sl "live refusals" expected (ask live_path writes);
  check_sl "router refusals" expected (ask front_path writes);
  checki "nothing journaled" 3 (Supervisor.seq sup);
  match must (Client.request_one c Wire.Stats) with
  | Wire.Stats_text body ->
      let row =
        List.find
          (fun l -> contains l "update.rejected")
          (String.split_on_char '\n' body)
      in
      check_sl "update.rejected counts the live server's refusals only"
        [ "counter"; "update.rejected"; "5"; "updates" ]
        (List.filter (( <> ) "") (String.split_on_char ' ' row))
  | r -> Alcotest.fail ("STATS answered " ^ Wire.describe_reply r)

let () =
  Alcotest.run "shard"
    [
      ( "transport",
        [
          Alcotest.test_case "endpoint parse" `Quick test_endpoint_parse;
          Alcotest.test_case "tcp roundtrip + connect retry" `Quick
            test_tcp_roundtrip_and_connect_retry;
          Alcotest.test_case "tcp connect refused" `Quick
            test_tcp_connect_refused;
          Alcotest.test_case "unix connect, late bind" `Quick
            test_unix_connect_late_bind;
          Alcotest.test_case "tcp port taken + rebind" `Quick
            test_tcp_port_taken_and_rebind;
          Alcotest.test_case "one-byte binary frames" `Quick
            test_conn_one_byte_frames;
          Alcotest.test_case "one-byte text lines" `Quick
            test_conn_one_byte_text_lines;
        ] );
      ( "partition",
        [ Alcotest.test_case "partition map" `Quick test_partition_map ] );
      ( "scatter-gather",
        [
          Alcotest.test_case "byte identity across shard counts" `Quick
            test_scatter_gather_byte_identity;
          Alcotest.test_case "stats sections positional" `Quick
            test_stats_sections_positional;
          Alcotest.test_case "overload parity" `Quick test_overload_parity;
          Alcotest.test_case "router refuses store and tiers" `Quick
            test_router_refuses_store_and_tiers;
        ] );
      ( "batched fan-out",
        [
          Alcotest.test_case "eval_round = per-request eval" `Quick
            test_eval_round_differential;
          Alcotest.test_case "one frame per shard per round" `Quick
            test_one_frame_per_shard_per_round;
          Alcotest.test_case "a full round never sheds a shard" `Quick
            test_full_round_never_sheds_a_shard;
          Alcotest.test_case "a repeated sub-range is queued once" `Quick
            test_repeated_subrange_queued_once;
        ] );
      ( "refusals and cache keys",
        [
          Alcotest.test_case "quantile nan refused" `Quick
            test_quantile_nan_refused;
          Alcotest.test_case "cache keys on request value" `Quick
            test_cache_keys_on_request_value;
          Alcotest.test_case "invalid update refused" `Quick
            test_invalid_update_refused;
        ] );
      ( "failover",
        [
          Alcotest.test_case "shard primary killed mid-storm" `Quick
            test_sharded_failover_byte_identity;
        ] );
    ]
