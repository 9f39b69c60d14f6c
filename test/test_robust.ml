(* Resilient serving layer: validated ingestion, cooperative deadlines,
   the graceful-degradation ladder, and deterministic chaos tests.

   The contract under test: once input validates, the ladder serves
   every request without exceptions, whatever tier answers reports a
   guarantee re-measured on the pristine data, and injected faults
   degrade the answer instead of crashing the caller. *)

module Validate = Wavesyn_robust.Validate
module Deadline = Wavesyn_robust.Deadline
module Fault = Wavesyn_robust.Fault
module Ladder = Wavesyn_robust.Ladder
module Retry = Wavesyn_robust.Retry
module Snapshot = Wavesyn_robust.Snapshot
module Journal = Wavesyn_robust.Journal
module Incremental = Wavesyn_robust.Incremental
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Minmax_dp = Wavesyn_core.Minmax_dp
module Approx_additive = Wavesyn_core.Approx_additive
module Greedy_maxerr = Wavesyn_baselines.Greedy_maxerr
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Engine = Wavesyn_aqp.Engine
module Relation = Wavesyn_aqp.Relation
module Prng = Wavesyn_util.Prng
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Validate --- *)

let test_parse_float () =
  (match Validate.parse_float ~line:1 "3.5" with
  | Ok v -> Alcotest.(check (float 0.)) "parses" 3.5 v
  | Error _ -> Alcotest.fail "3.5 must parse");
  (match Validate.parse_float ~path:"d.txt" ~line:7 "abc" with
  | Error (Validate.Bad_value { path = Some "d.txt"; line = 7; token = "abc"; _ })
    ->
      ()
  | _ -> Alcotest.fail "malformed token must carry file and line");
  List.iter
    (fun tok ->
      match Validate.parse_float ~line:1 tok with
      | Error (Validate.Bad_value _) -> ()
      | _ -> Alcotest.fail (tok ^ " must be rejected"))
    [ "nan"; "inf"; "-inf"; "infinity"; "x"; "" ]

let test_read_file () =
  let write lines =
    let path = Filename.temp_file "wavesyn_robust" ".txt" in
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    path
  in
  (match Validate.read_file (write [ "1"; ""; "2.5"; "-3" ]) with
  | Ok a -> check "blank lines skipped" true (a = [| 1.; 2.5; -3. |])
  | Error e -> Alcotest.fail (Validate.to_string e));
  (match Validate.read_file (write [ "1"; "2"; "oops"; "4" ]) with
  | Error (Validate.Bad_value { line = 3; token = "oops"; _ }) -> ()
  | _ -> Alcotest.fail "bad token must be reported with its line");
  (match Validate.read_file (write []) with
  | Error (Validate.Bad_shape _ as e) ->
      checki "empty file exit code" 65 (Validate.exit_code e)
  | _ -> Alcotest.fail "empty file must be Bad_shape");
  match Validate.read_file "/nonexistent/wavesyn.txt" with
  | Error (Validate.Io_error _ as e) ->
      checki "io exit code" 66 (Validate.exit_code e)
  | _ -> Alcotest.fail "unreadable path must be Io_error"

let test_data_checks () =
  (match Validate.data [||] with
  | Error (Validate.Bad_shape _) -> ()
  | _ -> Alcotest.fail "empty data rejected");
  (match Validate.data [| 1.; Float.nan; 3.; 4. |] with
  | Error (Validate.Bad_value { line = 2; _ }) -> ()
  | _ -> Alcotest.fail "NaN position reported");
  (match Validate.data ~require_pow2:true [| 1.; 2.; 3. |] with
  | Error (Validate.Bad_shape _) -> ()
  | _ -> Alcotest.fail "non-pow2 rejected when required");
  (match Validate.budget (-1) with
  | Error (Validate.Bad_budget _ as e) ->
      checki "budget exit code" 65 (Validate.exit_code e)
  | _ -> Alcotest.fail "negative budget rejected");
  (match Validate.epsilon 0. with
  | Error (Validate.Bad_epsilon _) -> ()
  | _ -> Alcotest.fail "epsilon 0 rejected");
  (match Validate.epsilon 1.5 with
  | Error (Validate.Bad_epsilon _) -> ()
  | _ -> Alcotest.fail "epsilon 1.5 rejected");
  checki "usage exit code" 2
    (Validate.exit_code
       (Validate.Bad_option { what = "--x"; reason = "conflict" }))

(* Bounded reads: the caps must trip as structured errors before the
   offending bytes are retained. *)
let test_read_file_caps () =
  let write s =
    let path = Filename.temp_file "wavesyn_caps" ".txt" in
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    path
  in
  (match Validate.read_file (write (String.make 5000 '7' ^ "\n1\n")) with
  | Error (Validate.Bad_value { line = 1; token; _ } as e) ->
      checki "long line exit code" 65 (Validate.exit_code e);
      check "token truncated for the message" true
        (String.length token <= 36
        && String.sub token (String.length token - 3) 3 = "...")
  | _ -> Alcotest.fail "a 5000-byte line must be rejected");
  (match
     Validate.read_file ~max_line_bytes:8 (write "12345\n123456789\n")
   with
  | Error (Validate.Bad_value { line = 2; _ }) -> ()
  | _ -> Alcotest.fail "custom line cap must trip on line 2");
  (match Validate.read_file ~max_bytes:10 (write "1\n2\n3\n4\n5\n6\n7\n") with
  | Error (Validate.Bad_shape _ as e) ->
      checki "oversized file exit code" 65 (Validate.exit_code e)
  | _ -> Alcotest.fail "a file over max_bytes must be Bad_shape");
  match Validate.read_file ~max_values:3 (write "1\n2\n3\n4\n") with
  | Error (Validate.Bad_shape _) -> ()
  | _ -> Alcotest.fail "more than max_values values must be Bad_shape"

let test_read_updates () =
  let write s =
    let path = Filename.temp_file "wavesyn_upd" ".txt" in
    let oc = open_out path in
    output_string oc s;
    close_out oc;
    path
  in
  (match Validate.read_updates (write "3 1.5\n\n0 -2\n7   0x1p-1\n") with
  | Ok a ->
      check "updates parsed, blanks skipped" true
        (a = [| (3, 1.5); (0, -2.); (7, 0.5) |])
  | Error e -> Alcotest.fail (Validate.to_string e));
  (match Validate.read_updates (write "3 1.5\nx 2\n") with
  | Error (Validate.Bad_value { line = 2; _ }) -> ()
  | _ -> Alcotest.fail "non-integer cell must be Bad_value");
  (match Validate.read_updates (write "-1 2\n") with
  | Error (Validate.Bad_value _) -> ()
  | _ -> Alcotest.fail "negative cell must be Bad_value");
  (match Validate.read_updates (write "1 nan\n") with
  | Error (Validate.Bad_value _) -> ()
  | _ -> Alcotest.fail "NaN delta must be Bad_value");
  match Validate.read_updates (write "1 2 3\n") with
  | Error (Validate.Bad_value { line = 1; _ }) -> ()
  | _ -> Alcotest.fail "three tokens must be Bad_value"

(* Line-ending tolerance: CRLF terminators and a newline-less final
   line are data, not token errors (regression: a '\r' used to count
   against max_line_bytes, so an exactly-cap-length CRLF line was
   rejected where its LF twin passed). *)
let test_read_line_endings () =
  let write s =
    let path = Filename.temp_file "wavesyn_eol" ".txt" in
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc;
    path
  in
  (match Validate.read_file (write "1.5\r\n\r\n-2\r\n3") with
  | Ok a ->
      check "CRLF + newline-less final line parse" true
        (a = [| 1.5; -2.; 3. |])
  | Error e -> Alcotest.fail (Validate.to_string e));
  (match Validate.read_file ~max_line_bytes:5 (write "12345\r\n1\r\n") with
  | Ok a -> check "CR does not count against the line cap" true (a = [| 12345.; 1. |])
  | Error e -> Alcotest.fail (Validate.to_string e));
  (match Validate.read_file ~max_line_bytes:5 (write "123456\r\n") with
  | Error (Validate.Bad_value { line = 1; _ }) -> ()
  | _ -> Alcotest.fail "the cap must still trip on the payload bytes");
  (match Validate.read_file (write "1\r2\n") with
  | Error (Validate.Bad_value { line = 1; _ }) -> ()
  | _ -> Alcotest.fail "a lone interior CR is not a line break");
  (match Validate.read_updates (write "3 1.5\r\n0 -2") with
  | Ok a ->
      check "updates accept CRLF and a newline-less tail" true
        (a = [| (3, 1.5); (0, -2.) |])
  | Error e -> Alcotest.fail (Validate.to_string e));
  match Validate.read_file (write "7\r") with
  | Ok a -> check "trailing CR at EOF is trimmed" true (a = [| 7. |])
  | Error e -> Alcotest.fail (Validate.to_string e)

(* --- Retry --- *)

let test_retry_backoff_deterministic () =
  let delays p = List.init 12 (fun k -> Retry.delay_ms p ~attempt:(k + 1)) in
  let d1 = delays (Retry.policy ~seed:5 ()) in
  let d2 = delays (Retry.policy ~seed:5 ()) in
  check "same seed replays the same jittered sequence" true (d1 = d2);
  check "different seed draws differently" true
    (delays (Retry.policy ~seed:6 ()) <> d1);
  List.iteri
    (fun k d ->
      let raw = Float.min 1000. (2. ** float_of_int k) in
      check
        (Printf.sprintf "attempt %d within the jitter band" (k + 1))
        true
        (d >= (0.75 *. raw) -. 1e-9 && d <= (1.25 *. raw) +. 1e-9))
    d1

let test_with_retries () =
  let p = Retry.policy ~seed:1 () in
  let calls = ref 0 and slept = ref 0 in
  (match
     Retry.with_retries
       ~sleep:(fun _ -> incr slept)
       p ~attempts:5
       (fun () ->
         incr calls;
         if !calls < 3 then Error "flaky" else Ok !calls)
   with
  | Ok 3 -> ()
  | _ -> Alcotest.fail "must succeed on the third call");
  checki "one backoff per failure" 2 !slept;
  calls := 0;
  match
    Retry.with_retries p ~attempts:4 (fun () ->
        incr calls;
        Error "down")
  with
  | Error "down" -> checki "all attempts consumed" 4 !calls
  | _ -> Alcotest.fail "exhausted retries must return the last error"

let test_breaker_lifecycle () =
  let now = ref 0. in
  let b =
    Retry.Breaker.create ~threshold:2 ~cooldown_ms:100.
      ~clock:(fun () -> !now)
      ()
  in
  let fail () = Retry.Breaker.call b (fun () -> Error "boom") in
  let succeed () = Retry.Breaker.call b (fun () -> Ok ()) in
  check "starts closed" true (Retry.Breaker.state b = Retry.Breaker.Closed);
  ignore (fail ());
  check "below threshold stays closed" true
    (Retry.Breaker.state b = Retry.Breaker.Closed);
  ignore (fail ());
  check "threshold of consecutive failures trips open" true
    (Retry.Breaker.state b = Retry.Breaker.Open);
  (match fail () with
  | Error Retry.Breaker.Open_circuit -> ()
  | _ -> Alcotest.fail "open breaker must reject without running");
  checki "rejection counted" 1 (Retry.Breaker.rejected b);
  now := 150.;
  check "cooldown elapses to half-open" true
    (Retry.Breaker.state b = Retry.Breaker.Half_open);
  (match succeed () with
  | Ok () -> ()
  | _ -> Alcotest.fail "half-open probe must be let through");
  check "probe success recloses" true
    (Retry.Breaker.state b = Retry.Breaker.Closed);
  ignore (fail ());
  ignore (fail ());
  now := 300.;
  (match fail () with
  | Error (Retry.Breaker.Inner "boom") -> ()
  | _ -> Alcotest.fail "half-open probe failure reports the inner error");
  check "probe failure reopens" true
    (Retry.Breaker.state b = Retry.Breaker.Open);
  checki "every opening counted" 3 (Retry.Breaker.trips b);
  check "a success also interrupts the failure streak" true
    (let b2 =
       Retry.Breaker.create ~threshold:2 ~clock:(fun () -> 0.) ()
     in
     ignore (Retry.Breaker.call b2 (fun () -> Error "x"));
     ignore (Retry.Breaker.call b2 (fun () -> Ok ()));
     ignore (Retry.Breaker.call b2 (fun () -> Error "x"));
     Retry.Breaker.state b2 = Retry.Breaker.Closed)

(* --- Snapshot and Journal (store units; end-to-end in test_chaos) --- *)

let temp_store =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "wavesyn_robust_store_%d_%d" (Unix.getpid ()) !counter)
    in
    Unix.mkdir dir 0o755;
    dir

let sample_stream ~n ~updates ~seed =
  let rng = Prng.create ~seed in
  let s = Stream_synopsis.create ~n in
  for _ = 1 to updates do
    Stream_synopsis.update s ~i:(Prng.int rng n)
      ~delta:(float_of_int (Prng.int rng 19 - 9))
  done;
  s

let flip_byte path pos =
  let ic = open_in_bin path in
  let bytes = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 1));
  let oc = open_out_bin path in
  output_bytes oc bytes;
  close_out oc

let test_snapshot_roundtrip () =
  let dir = temp_store () in
  let stream = sample_stream ~n:32 ~updates:25 ~seed:3 in
  let state = Snapshot.of_stream ~seq:25 stream in
  (match Snapshot.write ~sync:false ~dir state with
  | Ok { Snapshot.gen = 1; intact = true } -> ()
  | Ok { Snapshot.gen; _ } ->
      Alcotest.fail (Printf.sprintf "first generation must be 1, got %d" gen)
  | Error e -> Alcotest.fail (Validate.to_string e));
  match Snapshot.read_latest ~dir with
  | Error e -> Alcotest.fail (Validate.to_string e)
  | Ok r ->
      check "latest generation found" true (r.Snapshot.generation = Some 1);
      check "nothing corrupt" true (r.Snapshot.corrupt = []);
      (match r.Snapshot.state with
      | None -> Alcotest.fail "state must decode"
      | Some got ->
          checks "state round-trips bit-exactly" (Snapshot.encode state)
            (Snapshot.encode got);
          checks "stream rebuilt from it is identical"
            (Snapshot.encode state)
            (Snapshot.encode
               (Snapshot.of_stream ~seq:25 (Snapshot.to_stream got))))

let test_snapshot_corrupt_falls_back () =
  let dir = temp_store () in
  let stream = sample_stream ~n:16 ~updates:10 ~seed:4 in
  let write seq =
    match Snapshot.write ~sync:false ~dir (Snapshot.of_stream ~seq stream) with
    | Ok w -> w.Snapshot.gen
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  checki "gen 1" 1 (write 10);
  checki "gen 2" 2 (write 11);
  checki "gen 3" 3 (write 12);
  flip_byte (Snapshot.file_of_generation dir 3) 0;
  (match Snapshot.read_latest ~dir with
  | Ok { Snapshot.generation = Some 2; corrupt = [ 3 ]; state = Some st } ->
      checki "fell back to generation 2's seq" 11 st.Snapshot.seq
  | Ok _ -> Alcotest.fail "must fall back to generation 2 reporting 3 corrupt"
  | Error e -> Alcotest.fail (Validate.to_string e));
  flip_byte (Snapshot.file_of_generation dir 2) 40;
  (match Snapshot.read_latest ~dir with
  | Ok { Snapshot.generation = Some 1; corrupt = [ 3; 2 ]; _ } -> ()
  | Ok _ -> Alcotest.fail "must fall back past both corrupt generations"
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* Torn on-disk bytes (a strict prefix) are rejected the same way. *)
  (match Snapshot.decode (String.concat "\n" [ "wavesyn-snapshot v1"; "seq 1" ]) with
  | Error (Validate.Bad_shape _) -> ()
  | _ -> Alcotest.fail "a truncated snapshot must be Bad_shape");
  match Snapshot.decode "" with
  | Error (Validate.Bad_shape _) -> ()
  | _ -> Alcotest.fail "empty bytes must be Bad_shape"

let test_snapshot_prunes_generations () =
  let dir = temp_store () in
  let stream = sample_stream ~n:8 ~updates:5 ~seed:5 in
  for seq = 1 to 5 do
    match
      Snapshot.write ~keep:2 ~sync:false ~dir (Snapshot.of_stream ~seq stream)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Validate.to_string e)
  done;
  match Snapshot.list ~dir with
  | Ok [ 5; 4 ] -> ()
  | Ok gens ->
      Alcotest.fail
        ("kept generations must be [5; 4], got ["
        ^ String.concat ";" (List.map string_of_int gens)
        ^ "]")
  | Error e -> Alcotest.fail (Validate.to_string e)

let test_journal_roundtrip () =
  let dir = temp_store () in
  let w =
    match Journal.open_writer ~sync:false ~dir ~next_seq:1 () with
    | Ok w -> w
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  List.iteri
    (fun k (i, delta) ->
      match Journal.append w ~i ~delta with
      | Ok seq -> checki "sequence is consecutive" (k + 1) seq
      | Error e -> Alcotest.fail (Validate.to_string e))
    [ (3, 1.5); (0, -2.25); (7, 0.125); (3, 4.) ];
  Journal.close w;
  (match Journal.replay ~dir () with
  | Ok { Journal.records; truncated = false; _ } ->
      check "records round-trip bit-exactly" true
        (List.map (fun r -> (r.Journal.seq, r.Journal.i, r.Journal.delta)) records
        = [ (1, 3, 1.5); (2, 0, -2.25); (3, 7, 0.125); (4, 3, 4.) ])
  | Ok _ -> Alcotest.fail "a clean journal must not be truncated"
  | Error e -> Alcotest.fail (Validate.to_string e));
  match Journal.replay ~since:2 ~dir () with
  | Ok { Journal.records; _ } ->
      check "since filters to the suffix" true
        (List.map (fun r -> r.Journal.seq) records = [ 3; 4 ])
  | Error e -> Alcotest.fail (Validate.to_string e)

let test_journal_truncates_at_corruption () =
  let dir = temp_store () in
  let w =
    match Journal.open_writer ~sync:false ~dir ~next_seq:1 () with
    | Ok w -> w
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  for i = 1 to 6 do
    ignore (Journal.append w ~i ~delta:1.)
  done;
  Journal.close w;
  let path = Journal.path ~dir in
  (* Flip one bit inside record 4: everything from there is untrusted,
     even though records 5 and 6 are intact. *)
  let ic = open_in_bin path in
  let lines = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let offset_of_line k =
    let pos = ref 0 in
    for _ = 1 to k do
      pos := String.index_from lines !pos '\n' + 1
    done;
    !pos
  in
  flip_byte path (offset_of_line 3);
  (match Journal.replay ~dir () with
  | Ok { Journal.records; truncated = true; _ } ->
      check "only the prefix before the corruption survives" true
        (List.map (fun r -> r.Journal.seq) records = [ 1; 2; 3 ])
  | Ok _ -> Alcotest.fail "corruption must truncate the replay"
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* Repair drops the untrusted tail so appends can resume cleanly. *)
  (match Journal.repair ~dir with
  | Ok { Journal.truncated = true; valid_bytes; _ } ->
      checki "file cut back to the valid prefix" valid_bytes
        (let ic = open_in_bin path in
         let len = in_channel_length ic in
         close_in ic;
         len)
  | Ok _ -> Alcotest.fail "repair must report the truncation"
  | Error e -> Alcotest.fail (Validate.to_string e));
  let w =
    match Journal.open_writer ~sync:false ~dir ~next_seq:4 () with
    | Ok w -> w
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  ignore (Journal.append w ~i:9 ~delta:2.);
  Journal.close w;
  match Journal.replay ~dir () with
  | Ok { Journal.records; truncated = false; _ } ->
      check "resumed journal replays in full" true
        (List.map (fun r -> (r.Journal.seq, r.Journal.i)) records
        = [ (1, 1); (2, 2); (3, 3); (4, 9) ])
  | Ok _ -> Alcotest.fail "repaired journal must replay cleanly"
  | Error e -> Alcotest.fail (Validate.to_string e)

let test_journal_torn_tail_and_rotation () =
  let dir = temp_store () in
  let w =
    match Journal.open_writer ~sync:false ~dir ~next_seq:1 () with
    | Ok w -> w
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  for i = 1 to 5 do
    ignore (Journal.append w ~i ~delta:0.5)
  done;
  (match Journal.rotate w ~keep_after:3 with
  | Ok 2 -> ()
  | Ok k -> Alcotest.fail (Printf.sprintf "rotation must keep 2 records, kept %d" k)
  | Error e -> Alcotest.fail (Validate.to_string e));
  ignore (Journal.append w ~i:6 ~delta:0.5);
  Journal.close w;
  (match Journal.replay ~dir () with
  | Ok { Journal.records; truncated = false; _ } ->
      check "rotation preserves the suffix and numbering" true
        (List.map (fun r -> r.Journal.seq) records = [ 4; 5; 6 ])
  | Ok _ | Error _ -> Alcotest.fail "rotated journal must replay cleanly");
  (* A torn tail: the last line lacks its newline, so it was never
     acknowledged and must not count. *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Journal.path ~dir)
  in
  output_string oc "7 1 0x1p+0 0123";
  close_out oc;
  match Journal.replay ~dir () with
  | Ok { Journal.records; truncated = true; _ } ->
      check "torn tail dropped" true
        (List.map (fun r -> r.Journal.seq) records = [ 4; 5; 6 ])
  | Ok _ -> Alcotest.fail "a torn tail must truncate the replay"
  | Error e -> Alcotest.fail (Validate.to_string e)

(* --- Journal shipping (replication cursors) --- *)

let seqs_of records = List.map (fun r -> r.Journal.seq) records

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let write_records dir ~from ~upto =
  let w =
    match Journal.open_writer ~sync:false ~dir ~next_seq:from () with
    | Ok w -> w
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  for i = from to upto do
    ignore (Journal.append w ~i ~delta:(float_of_int i *. 0.25))
  done;
  w

let test_journal_ship_cursor () =
  let dir = temp_store () in
  Journal.close (write_records dir ~from:1 ~upto:10);
  (* a max-bounded batch ships a prefix and says it stopped short *)
  (match Journal.ship ~dir ~since:0 ~seq:10 ~max:4 () with
  | Ok b ->
      check "first four records" true (seqs_of b.Journal.b_records = [ 1; 2; 3; 4 ]);
      checki "batch carries the authoritative seq" 10 b.Journal.b_last_seq;
      check "prefix batch is incomplete" false b.Journal.b_complete
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* the cursor resumes mid-journal and drains to completion *)
  (match Journal.ship ~dir ~since:4 ~seq:10 ~max:100 () with
  | Ok b ->
      check "suffix from the cursor" true
        (seqs_of b.Journal.b_records = [ 5; 6; 7; 8; 9; 10 ]);
      check "drained batch is complete" true b.Journal.b_complete;
      (* the batch artifact survives an encode/decode roundtrip exactly *)
      (match Journal.decode_batch (Journal.encode_batch b) with
      | Ok b' -> check "batch round-trips bit-exactly" true (b = b')
      | Error e -> Alcotest.fail (Validate.to_string e))
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* a current cursor gets an empty complete batch, not an error *)
  (match Journal.ship ~dir ~since:10 ~seq:10 ~max:8 () with
  | Ok { Journal.b_records = []; b_complete = true; b_last_seq = 10; _ } -> ()
  | Ok _ -> Alcotest.fail "current cursor must ship an empty complete batch"
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* a cursor ahead of the store is split brain, never silently served *)
  match Journal.ship ~dir ~since:11 ~seq:10 ~max:8 () with
  | Error (Validate.Bad_shape { reason; _ }) ->
      check "split brain named" true (contains reason "ahead of")
  | Ok _ | Error _ -> Alcotest.fail "cursor ahead of the store must be refused"

let test_journal_ship_rejects_bit_flip () =
  let dir = temp_store () in
  Journal.close (write_records dir ~from:1 ~upto:6);
  let encoded =
    match Journal.ship ~dir ~since:0 ~seq:6 ~max:6 () with
    | Ok b -> Journal.encode_batch b
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  (* any single bit flip — header, record body, trailer — must trip a
     CRC or shape check; a shipped batch is never trusted on faith *)
  let len = String.length encoded in
  List.iter
    (fun pos ->
      let b = Bytes.of_string encoded in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      match Journal.decode_batch (Bytes.to_string b) with
      | Error (Validate.Bad_shape _) -> ()
      | Ok _ ->
          Alcotest.fail
            (Printf.sprintf "flipped byte %d must not decode" pos)
      | Error e -> Alcotest.fail (Validate.to_string e))
    [ 0; 5; len / 2; len - 2 ];
  (* a batch torn mid-shipment (lost trailer) is rejected too *)
  let torn = String.sub encoded 0 (String.rindex encoded 'e') in
  match Journal.decode_batch torn with
  | Error (Validate.Bad_shape { reason; _ }) ->
      check "torn shipment names the trailer" true (contains reason "trailer")
  | Ok _ | Error _ -> Alcotest.fail "a truncated batch must be rejected"

let test_journal_ship_torn_boundary_and_compaction () =
  let dir = temp_store () in
  Journal.close (write_records dir ~from:1 ~upto:6);
  (* Tear a 7th record: the store acked seq 7 but its line lost the
     newline, so the journal ends one short of the store. *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Journal.path ~dir)
  in
  output_string oc "7 1 0x1p+0 0123";
  close_out oc;
  (* shipping the intact prefix still works *)
  (match Journal.ship ~dir ~since:4 ~seq:6 ~max:8 () with
  | Ok b ->
      check "intact prefix ships" true (seqs_of b.Journal.b_records = [ 5; 6 ]);
      check "complete up to the intact seq" true b.Journal.b_complete
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* shipping through the tear is a crisp error, not a silent gap *)
  (match Journal.ship ~dir ~since:4 ~seq:7 ~max:8 () with
  | Error (Validate.Bad_shape { reason; _ }) ->
      check "torn boundary diagnosed" true (contains reason "short of store seq")
  | Ok _ | Error _ -> Alcotest.fail "a torn ship boundary must be refused");
  (* Compaction racing an active cursor: repair the tear, rotate away
     the range the stale cursor still needs. *)
  (match Journal.repair ~dir with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Validate.to_string e));
  let w = write_records dir ~from:7 ~upto:8 in
  (match Journal.rotate w ~keep_after:5 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Validate.to_string e));
  Journal.close w;
  (* the stale cursor is told to bootstrap from a snapshot *)
  (match Journal.ship ~dir ~since:2 ~seq:8 ~max:8 () with
  | Error (Validate.Bad_shape { reason; _ }) ->
      check "compacted cursor needs a snapshot" true
        (contains reason "snapshot required")
  | Ok _ | Error _ -> Alcotest.fail "a compacted-away cursor must be refused");
  (* a cursor at the compaction frontier still streams the live suffix *)
  match Journal.ship ~dir ~since:5 ~seq:8 ~max:8 () with
  | Ok b ->
      check "frontier cursor ships the suffix" true
        (seqs_of b.Journal.b_records = [ 6; 7; 8 ]);
      check "suffix is complete" true b.Journal.b_complete
  | Error e -> Alcotest.fail (Validate.to_string e)

(* The authoritative-sequence clamp: the WAL on disk may run past the
   store's acked history — an unacked suffix left behind by a crash
   whose recovery has not repaired yet, or a ship asked as-of an older
   sequence during catch-up. Those records must never ship: a batch
   overrunning its own [b_last_seq] would make a follower apply writes
   the primary never acknowledged. *)
let test_journal_ship_clamps_unacked_suffix () =
  let dir = temp_store () in
  Journal.close (write_records dir ~from:1 ~upto:10);
  (* the journal holds 1..10, but only 1..7 are acked *)
  (match Journal.ship ~dir ~since:4 ~seq:7 ~max:100 () with
  | Ok b ->
      check "unacked suffix clamped out" true
        (seqs_of b.Journal.b_records = [ 5; 6; 7 ]);
      checki "last_seq is the acked history" 7 b.Journal.b_last_seq;
      check "clamped batch is complete" true b.Journal.b_complete
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* max truncation composes with the clamp *)
  (match Journal.ship ~dir ~since:0 ~seq:7 ~max:3 () with
  | Ok b ->
      check "max-bounded prefix" true (seqs_of b.Journal.b_records = [ 1; 2; 3 ]);
      check "still incomplete" false b.Journal.b_complete
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* a cursor already at the older seq ships an empty complete batch *)
  (match Journal.ship ~dir ~since:7 ~seq:7 ~max:8 () with
  | Ok { Journal.b_records = []; b_complete = true; b_last_seq = 7; _ } -> ()
  | Ok _ -> Alcotest.fail "cursor at acked seq must ship empty and complete"
  | Error e -> Alcotest.fail (Validate.to_string e))

let test_journal_ship_fully_compacted () =
  let dir = temp_store () in
  let w = write_records dir ~from:1 ~upto:10 in
  (* compact everything away: the WAL is empty, history ends at 10 *)
  (match Journal.rotate w ~keep_after:10 with
  | Ok kept -> checki "nothing retained" 0 kept
  | Error e -> Alcotest.fail (Validate.to_string e));
  Journal.close w;
  (* a current cursor is still served: empty, complete, no error —
     the warm-standby steady state right after a checkpoint *)
  (match Journal.ship ~dir ~since:10 ~seq:10 ~max:8 () with
  | Ok { Journal.b_records = []; b_complete = true; b_last_seq = 10; _ } -> ()
  | Ok _ -> Alcotest.fail "current cursor on a compacted WAL must be empty/complete"
  | Error e -> Alcotest.fail (Validate.to_string e));
  (* one record behind the frontier: the range is gone — bootstrap *)
  match Journal.ship ~dir ~since:9 ~seq:10 ~max:8 () with
  | Error (Validate.Bad_shape { reason; _ }) ->
      check "compacted-away cursor told to bootstrap" true
        (contains reason "snapshot required")
  | Ok _ | Error _ -> Alcotest.fail "a compacted-away cursor must be refused"

(* --- Incremental re-cut (unit level; end-to-end in test_chaos_update) --- *)

let max_err_of synopsis data =
  let worst = ref 0. in
  Array.iteri
    (fun i v ->
      worst := Float.max !worst (Float.abs (Synopsis.reconstruct_point synopsis i -. v)))
    data;
  !worst

let test_incremental_bound_sound () =
  let n = 64 in
  let rng = Prng.create ~seed:31 in
  let stream = Stream_synopsis.of_data (Array.init n (fun _ -> Prng.float rng 20.)) in
  let inc =
    Incremental.create ~full_every:1_000 ~budget:8 ~metric:Metrics.Abs
      ~epsilon:0.25 stream
  in
  (* The initial full cut's bound is already a sound upper bound. *)
  check "initial bound sound" true
    (Incremental.bound inc
     +. 1e-9
    >= max_err_of (Incremental.synopsis inc) (Stream_synopsis.current_data stream));
  (* Drive 60 random updates in refresh batches of varying width; the
     served bound must stay an upper bound on the true max error after
     every refresh — exact on re-solved subtrees, padded on clean
     ones. *)
  let applied = ref 0 in
  for round = 1 to 12 do
    for _ = 1 to 1 + (round mod 4) do
      let i = Prng.int rng n and delta = Prng.float rng 4.0 -. 2.0 in
      Stream_synopsis.update stream ~i ~delta;
      Incremental.note_update inc ~i ~delta;
      incr applied
    done;
    Incremental.refresh inc stream;
    let true_err =
      max_err_of (Incremental.synopsis inc) (Stream_synopsis.current_data stream)
    in
    if Incremental.bound inc +. 1e-9 < true_err then
      Alcotest.fail
        (Printf.sprintf "round %d: bound %g < true max error %g" round
           (Incremental.bound inc) true_err)
  done;
  let s = Incremental.stats inc in
  checki "every refresh did incremental work" 12 s.Incremental.incrementals;
  checki "no cadenced full cut at full_every=1000" 1 s.Incremental.full_cuts;
  checki "notes counted since the full cut" !applied s.Incremental.since_full;
  (* A full re-cut re-tightens: its bound is the ladder's re-measured
     guarantee, never above the incremental bound it replaces. *)
  let before = Incremental.bound inc in
  (match Incremental.full_cut inc stream with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Validate.to_string e));
  check "full cut never loosens the bound" true
    (Incremental.bound inc <= before +. 1e-9);
  checki "full cut resets the cadence" 0 (Incremental.stats inc).Incremental.since_full

let test_incremental_deterministic_replicas () =
  let n = 32 in
  let data = Array.init n (fun i -> float_of_int ((i * 7) mod 13)) in
  let run () =
    let stream = Stream_synopsis.of_data (Array.copy data) in
    let inc =
      Incremental.create ~full_every:8 ~budget:6 ~metric:Metrics.Abs
        ~epsilon:0.25 stream
    in
    let rng = Prng.create ~seed:17 in
    for _ = 1 to 5 do
      for _ = 1 to 4 do
        let i = Prng.int rng n and delta = Prng.float rng 2.0 -. 1.0 in
        Stream_synopsis.update stream ~i ~delta;
        Incremental.note_update inc ~i ~delta
      done;
      if Incremental.due_full inc then ignore (Incremental.full_cut inc stream)
      else Incremental.refresh inc stream
    done;
    (Synopsis.coeffs (Incremental.synopsis inc), Incremental.bound inc)
  in
  let coeffs_a, bound_a = run () in
  let coeffs_b, bound_b = run () in
  check "replicas serve bit-identical synopses" true (coeffs_a = coeffs_b);
  Alcotest.(check (float 0.)) "and state the same bound" bound_a bound_b

(* Every observable bit of the live write path, folded into one CRC:
   each coefficient's bits, the reconstructed data's bits, the served
   synopsis and bound bits, the refresh counters and the observer's
   touch count, after every write round of seeded schedules. The
   schedules mix zero and negative-zero deltas, subnormal deltas,
   exact cancellations and multi-delta rounds, at both a tight and a
   loose full-cut cadence. The expected value pins the storage and
   walk order of Stream_synopsis and Incremental: a change to either
   that moves one bit of a coefficient or a bound changes the CRC. *)
let write_path_digest () =
  let crc = ref 0 in
  let add s = crc := Wavesyn_util.Crc32.update !crc s in
  let add_float x = add (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  let add_int k = add (Printf.sprintf "%d;" k) in
  List.iter
    (fun (n, full_every) ->
      let rng = Prng.create ~seed:((n * 7919) + full_every) in
      let data =
        Array.init n (fun i ->
            if i mod 5 = 0 then 0. else Prng.float rng 40. -. 20.)
      in
      let stream = Stream_synopsis.of_data data in
      let touches = ref 0 in
      Stream_synopsis.set_observer stream (Some (fun k -> touches := !touches + k));
      let inc =
        Incremental.create ~full_every ~budget:(Stdlib.max 1 (n / 8))
          ~metric:Metrics.Abs ~epsilon:0.25 stream
      in
      let apply i delta =
        Stream_synopsis.update stream ~i ~delta;
        Incremental.note_update inc ~i ~delta
      in
      for _ = 1 to 24 do
        for _ = 1 to 1 + Prng.int rng 4 do
          let i = Prng.int rng n in
          match Prng.int rng 6 with
          | 0 -> apply i 0.
          | 1 -> apply i (-0.)
          | 2 -> apply i (ldexp (float_of_int (1 + Prng.int rng 9)) (-1074))
          | 3 ->
              (* an exact cancellation: the path returns to its values *)
              let d = Prng.float rng 8. -. 4. in
              apply i d;
              apply i (-.d)
          | 4 -> apply i (1e-300 *. (Prng.float rng 2. -. 1.))
          | _ -> apply i (Prng.float rng 10. -. 5.)
        done;
        if Incremental.due_full inc then ignore (Incremental.full_cut inc stream)
        else Incremental.refresh inc stream;
        for j = 0 to n - 1 do
          add_float (Stream_synopsis.coefficient stream j)
        done;
        List.iter
          (fun (j, c) ->
            add_int j;
            add_float c)
          (Stream_synopsis.coeffs stream);
        add_int (Stream_synopsis.nonzero_count stream);
        Array.iter add_float (Stream_synopsis.current_data stream);
        List.iter
          (fun (j, c) ->
            add_int j;
            add_float c)
          (Synopsis.coeffs (Incremental.synopsis inc));
        add_float (Incremental.bound inc);
        let s = Incremental.stats inc in
        List.iter add_int
          [
            s.Incremental.full_cuts;
            s.Incremental.incrementals;
            s.Incremental.subtrees_resolved;
            s.Incremental.since_full;
            Stream_synopsis.updates_seen stream;
            !touches;
          ]
      done)
    (List.concat_map
       (fun n -> [ (n, 3); (n, 1000) ])
       [ 1; 2; 8; 64; 256 ]);
  !crc

(* Right after a full cut every subtree is re-measured and all slack is
   reset, so the stated bound is not just sound but exact: it equals
   the synopsis's true max error. A re-measure that over-counts would
   still pass the soundness test above; it fails here. *)
let test_incremental_bound_tight () =
  List.iter
    (fun (n, budget, seed) ->
      let rng = Prng.create ~seed in
      let stream =
        Stream_synopsis.of_data (Array.init n (fun _ -> Prng.float rng 20.))
      in
      let inc =
        Incremental.create ~full_every:1_000 ~budget ~metric:Metrics.Abs
          ~epsilon:0.25 stream
      in
      let check_tight what =
        let exact =
          max_err_of (Incremental.synopsis inc)
            (Stream_synopsis.current_data stream)
        in
        let bound = Incremental.bound inc in
        if Float.abs (bound -. exact) > 1e-9 *. Float.max 1. exact then
          Alcotest.fail
            (Printf.sprintf "n=%d %s: bound %h but exact max error %h" n what
               bound exact)
      in
      check_tight "after create";
      for round = 1 to 6 do
        for _ = 1 to round do
          let i = Prng.int rng n and delta = Prng.float rng 6. -. 3. in
          Stream_synopsis.update stream ~i ~delta;
          Incremental.note_update inc ~i ~delta
        done;
        Incremental.refresh inc stream;
        (match Incremental.full_cut inc stream with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Validate.to_string e));
        check_tight (Printf.sprintf "after full cut %d" round)
      done)
    [ (1, 1, 3); (8, 2, 5); (64, 8, 7); (256, 32, 11) ]

(* The write path's allocation, per call, in minor words: a point
   update with no observer and an update note allocate nothing; one
   refresh at the live-write size (n=256, B=32) allocates about 610
   words, nearly all of it the rebuilt synopsis (its coefficient list
   and [Synopsis.make]'s support arrays). *)
let test_write_path_allocation () =
  let n = 256 in
  let stream =
    Stream_synopsis.of_data
      (Array.init n (fun i -> float_of_int (((i * 37) mod 101) - 50)))
  in
  let inc =
    Incremental.create ~obs:(Wavesyn_obs.Registry.create ())
      ~full_every:1_000_000 ~budget:32 ~metric:Metrics.Abs ~epsilon:0.25
      stream
  in
  let rounds = 1000 in
  let words_per f =
    let w0 = Gc.minor_words () in
    for r = 1 to rounds do
      f ((r * 97) land (n - 1))
    done;
    (Gc.minor_words () -. w0) /. float_of_int rounds
  in
  let update = words_per (fun i -> Stream_synopsis.update stream ~i ~delta:0.5) in
  let note = words_per (fun i -> Incremental.note_update inc ~i ~delta:0.5) in
  Incremental.refresh inc stream;
  let refresh =
    words_per (fun i ->
        Incremental.note_update inc ~i ~delta:0.25;
        Incremental.refresh inc stream)
  in
  check (Printf.sprintf "update allocates %.2f words (0)" update) true
    (update < 0.1);
  check (Printf.sprintf "note_update allocates %.2f words (0)" note) true
    (note < 0.1);
  check (Printf.sprintf "refresh allocates %.0f words (<= 800)" refresh) true
    (refresh <= 800.)

let test_write_path_digest () =
  checks "write-path digest" "da2e2f15"
    (Wavesyn_util.Crc32.to_hex (write_path_digest ()))

(* --- Deadline --- *)

(* A deterministic state budget is a probe on the state count. *)
let test_deadline_state_cap () =
  let d = Deadline.create ~probe:(fun st -> st.Deadline.states > 10) () in
  let raised = ref None in
  (try
     for _ = 1 to 100 do
       Deadline.tick d
     done
   with Deadline.Deadline_exceeded st -> raised := Some st);
  match !raised with
  | Some st ->
      checki "expired on the state after the cap" 11 st.Deadline.states;
      check "partial progress recorded" true (st.Deadline.checks = 11);
      check "no time budget reported" true (st.Deadline.budget_ms = None);
      check "stays expired" true (Deadline.expired d);
      (match Deadline.tick d with
      | () -> Alcotest.fail "a tick after expiry must raise again"
      | exception Deadline.Deadline_exceeded _ -> ())
  | None -> Alcotest.fail "state cap must trip"

let test_deadline_unlimited () =
  let d = Deadline.unlimited () in
  for _ = 1 to 10_000 do
    Deadline.tick d
  done;
  checki "states counted" 10_000 (Deadline.stats d).Deadline.states;
  check "not expired" false (Deadline.expired d)

let test_deadline_time () =
  let d = Deadline.create ~ms:0.1 () in
  let t0 = Deadline.now_ms () in
  while Deadline.now_ms () -. t0 < 1. do
    ()
  done;
  check "expired after its budget elapsed" true (Deadline.expired d);
  match Deadline.tick d with
  | () -> Alcotest.fail "tick past the budget must raise"
  | exception Deadline.Deadline_exceeded st ->
      check "elapsed reported" true (st.Deadline.elapsed_ms >= 0.1)

let test_deadline_probe_forces_expiry () =
  let d = Deadline.create ~probe:(fun _ -> true) () in
  match Deadline.tick d with
  | () -> Alcotest.fail "probe must force expiry"
  | exception Deadline.Deadline_exceeded _ -> ()

(* --- deadline threading through the solvers --- *)

let sample_data n =
  let rng = Prng.create ~seed:99 in
  Array.init n (fun _ -> Prng.float rng 100. -. 50.)

let test_minmax_deadline_threading () =
  let data = sample_data 64 in
  let d = Deadline.create ~probe:(fun st -> st.Deadline.states > 5) () in
  match
    Minmax_dp.solve
      ~on_state:(fun () -> Deadline.tick d)
      ~data ~budget:6 Metrics.Abs
  with
  | _ -> Alcotest.fail "5-state cap cannot complete a 64-cell DP"
  | exception Deadline.Deadline_exceeded st ->
      checki "aborted deterministically" 6 st.Deadline.states

let test_approx_deadline_threading () =
  let data = sample_data 64 in
  let d = Deadline.create ~probe:(fun st -> st.Deadline.states > 3) () in
  match
    Approx_additive.solve_1d
      ~on_state:(fun () -> Deadline.tick d)
      ~data ~budget:6 ~epsilon:0.25 Metrics.Abs
  with
  | _ -> Alcotest.fail "3-state cap cannot complete the approximate DP"
  | exception Deadline.Deadline_exceeded _ -> ()

(* --- Ladder --- *)

let big_data =
  let rng = Prng.create ~seed:5 in
  Array.init 4096 (fun i ->
      (50. *. sin (float_of_int i /. 13.)) +. Prng.float rng 10.)

let test_ladder_tiny_deadline_degrades () =
  match Ladder.serve ~deadline_ms:1.0 ~data:big_data ~budget:8 Metrics.Abs with
  | Error e -> Alcotest.fail (Validate.to_string e)
  | Ok s ->
      check "did not serve the exact tier" true (s.Ladder.tier <> Ladder.Minmax);
      check "guarantee is finite" true (Float.is_finite s.Ladder.max_err);
      check "guarantee is sound" true
        (Float_util.approx_equal ~eps:1e-12 s.Ladder.max_err
           (Metrics.of_synopsis Metrics.Abs ~data:big_data s.Ladder.synopsis));
      check "within budget" true (Synopsis.size s.Ladder.synopsis <= 8);
      check "exact tier was attempted first" true
        (match s.Ladder.attempts with
        | { Ladder.tier = Ladder.Minmax; outcome = Ladder.Timed_out _; _ } :: _
          ->
            true
        | _ -> false)

let test_ladder_no_deadline_is_exact () =
  let data = sample_data 256 in
  let metric = Metrics.Rel { sanity = 1.0 } in
  match Ladder.serve ~data ~budget:10 metric with
  | Error e -> Alcotest.fail (Validate.to_string e)
  | Ok s ->
      check "served by the exact tier" true (s.Ladder.tier = Ladder.Minmax);
      let exact = (Minmax_dp.solve ~data ~budget:10 metric).Minmax_dp.max_err in
      check "max_err equals Minmax_dp.solve's" true
        (Float_util.approx_equal ~eps:1e-12 s.Ladder.max_err exact)

(* With no slice and no deadline fault nothing can
   expire, so the ladder passes no per-state hook: an exact serve
   allocates O(n) minor words (the solve's bookkeeping, the synopsis
   and its re-measure), not a deadline check per DP state. *)
let test_ladder_unbounded_allocation () =
  let n = 256 in
  let data = sample_data n in
  let serve () = Ladder.serve ~data ~budget:32 Metrics.Abs in
  ignore (serve ());
  let w0 = Gc.minor_words () in
  let served = serve () in
  let words = Gc.minor_words () -. w0 in
  check "served by the exact tier" true
    (match served with Ok s -> s.Ladder.tier = Ladder.Minmax | Error _ -> false);
  check
    (Printf.sprintf "%.0f minor words < 64 n = %d" words (64 * n))
    true
    (words < float_of_int (64 * n))

let test_ladder_rejects_bad_input () =
  (match Ladder.serve ~data:[||] ~budget:4 Metrics.Abs with
  | Error (Validate.Bad_shape _) -> ()
  | _ -> Alcotest.fail "empty data must be rejected");
  (match Ladder.serve ~data:[| 1.; 2.; 3. |] ~budget:4 Metrics.Abs with
  | Error (Validate.Bad_shape _) -> ()
  | _ -> Alcotest.fail "non-pow2 data must be rejected");
  (match Ladder.serve ~data:[| 1.; Float.nan |] ~budget:4 Metrics.Abs with
  | Error (Validate.Bad_value _) -> ()
  | _ -> Alcotest.fail "NaN data must be rejected");
  (match Ladder.serve ~data:[| 1.; 2. |] ~budget:(-1) Metrics.Abs with
  | Error (Validate.Bad_budget _) -> ()
  | _ -> Alcotest.fail "negative budget must be rejected");
  match Ladder.serve ~epsilon:0. ~data:[| 1.; 2. |] ~budget:1 Metrics.Abs with
  | Error (Validate.Bad_epsilon _) -> ()
  | _ -> Alcotest.fail "epsilon outside (0,1] must be rejected"

(* --- chaos: deterministic fault injection --- *)

let chaos_data = sample_data 64

let serve_with_fault kind seed =
  let fault = Fault.create ~kinds:[ kind ] ~rate:1.0 ~seed () in
  match Ladder.serve ~fault ~data:chaos_data ~budget:6 Metrics.Abs with
  | Error e -> Alcotest.fail (Validate.to_string e)
  | Ok s -> s

let chaos_case kind () =
  let s = serve_with_fault kind 11 in
  check "guarantee finite under fault" true (Float.is_finite s.Ladder.max_err);
  check "reported guarantee is sound" true
    (Float_util.approx_equal ~eps:1e-12 s.Ladder.max_err
       (Metrics.of_synopsis Metrics.Abs ~data:chaos_data s.Ladder.synopsis));
  check "within budget" true (Synopsis.size s.Ladder.synopsis <= 6);
  (* Determinism: the same seed replays the identical ladder run. *)
  let s' = serve_with_fault kind 11 in
  check "tier deterministic under fixed seed" true
    (s.Ladder.tier = s'.Ladder.tier);
  checks "attempt trace deterministic under fixed seed"
    (Ladder.describe_attempts s.Ladder.attempts)
    (Ladder.describe_attempts s'.Ladder.attempts)

let test_chaos_expire_degrades () =
  let s = serve_with_fault Fault.Expire_deadline 11 in
  check "forced expiry degrades past the exact tier" true
    (s.Ladder.tier = Ladder.Greedy_maxerr);
  check "every bounded tier timed out" true
    (List.for_all
       (fun (a : Ladder.attempt) ->
         match a.Ladder.outcome with
         | Ladder.Timed_out _ -> a.Ladder.tier <> Ladder.Greedy_maxerr
         | Ladder.Answered -> a.Ladder.tier = Ladder.Greedy_maxerr
         | Ladder.Failed _ -> false)
       s.Ladder.attempts)

let test_chaos_alloc_pressure_recovers () =
  let s = serve_with_fault Fault.Alloc_pressure 11 in
  check "pressure degrades to the fault-free floor" true
    (s.Ladder.tier = Ladder.Greedy_maxerr);
  check "faulted attempts recorded as failures" true
    (List.exists
       (fun (a : Ladder.attempt) ->
         match a.Ladder.outcome with Ladder.Failed _ -> true | _ -> false)
       s.Ladder.attempts)

let test_chaos_all_kinds_together () =
  let fault = Fault.create ~rate:0.5 ~seed:1234 () in
  match Ladder.serve ~fault ~data:chaos_data ~budget:6 Metrics.Abs with
  | Error e -> Alcotest.fail (Validate.to_string e)
  | Ok s ->
      check "mixed chaos still serves soundly" true
        (Float.is_finite s.Ladder.max_err
        && Float_util.approx_equal ~eps:1e-12 s.Ladder.max_err
             (Metrics.of_synopsis Metrics.Abs ~data:chaos_data
                s.Ladder.synopsis))

(* --- adversarial property tests --- *)

(* Adversarial corners the issue calls out explicitly, plus random
   budgets far beyond N. For direct solver calls, [Invalid_argument] is
   the documented contract for out-of-domain input; anything else
   escaping is a bug. The ladder must not raise at all. *)
let corner_inputs =
  [
    ("single", [| 42. |]);
    ("single-zero", [| 0. |]);
    ("pair", [| -1.; 1. |]);
    ("zeros8", Array.make 8 0.);
    ("const16", Array.make 16 7.5);
    ("spike", Array.init 16 (fun i -> if i = 9 then 1e6 else 0.));
    ("tiny", Array.init 8 (fun i -> float_of_int i *. 1e-9));
  ]

let corner_budgets = [ 0; 1; 3; 1000 ]

let solver_calls ~data ~budget metric =
  [
    ( "minmax",
      fun () ->
        let r = Minmax_dp.solve ~data ~budget metric in
        check "minmax reported error is measured" true
          (Float_util.approx_equal ~eps:1e-9 r.Minmax_dp.max_err
             (Metrics.of_synopsis metric ~data r.Minmax_dp.synopsis));
        Synopsis.size r.Minmax_dp.synopsis <= budget );
    ( "approx",
      fun () ->
        let measured, syn =
          Approx_additive.solve_1d ~data ~budget ~epsilon:0.5 metric
        in
        check "approx measured error is measured" true
          (Float_util.approx_equal ~eps:1e-9 measured
             (Metrics.of_synopsis metric ~data syn));
        Synopsis.size syn <= budget );
    ( "greedy",
      fun () ->
        let syn = Greedy_maxerr.threshold ~data ~budget metric in
        check "greedy guarantee finite" true
          (Float.is_finite (Metrics.of_synopsis metric ~data syn));
        Synopsis.size syn <= budget );
  ]

let test_solver_corners () =
  List.iter
    (fun (dname, data) ->
      List.iter
        (fun budget ->
          List.iter
            (fun (sname, call) ->
              let label =
                Printf.sprintf "%s on %s B=%d" sname dname budget
              in
              match call () with
              | within -> check (label ^ " within budget") true within
              | exception Invalid_argument _ ->
                  (* documented contract for out-of-domain input *)
                  ()
              | exception e ->
                  Alcotest.fail
                    (label ^ " leaked " ^ Printexc.to_string e))
            (solver_calls ~data ~budget (Metrics.Rel { sanity = 0.5 })))
        corner_budgets)
    corner_inputs

(* The pressure→tier map the serving layer and the pre-cut tiers share:
   level to ladder top, and top to the tier a serve there tries first. *)
let test_ladder_top_of_pressure () =
  check "top 0" true (Ladder.top_of_pressure 0 = `Minmax);
  check "top 1" true (Ladder.top_of_pressure 1 = `Approx);
  check "top 2" true (Ladder.top_of_pressure 2 = `Greedy);
  List.iter
    (fun (top, name) ->
      checks name name (Ladder.tier_name (Ladder.tier_of_top ~epsilon:0.25 top)))
    [
      (`Minmax, "minmax"); (`Approx, "approx(eps=0.25)");
      (`Greedy, "greedy-maxerr");
    ]

let test_ladder_corners () =
  List.iter
    (fun (dname, data) ->
      List.iter
        (fun budget ->
          let label = Printf.sprintf "ladder on %s B=%d" dname budget in
          match Ladder.serve ~data ~budget Metrics.Abs with
          | Ok s ->
              check (label ^ " guarantee sound") true
                (Float_util.approx_equal ~eps:1e-12 s.Ladder.max_err
                   (Metrics.of_synopsis Metrics.Abs ~data s.Ladder.synopsis));
              check
                (label ^ " within budget")
                true
                (Synopsis.size s.Ladder.synopsis <= budget)
          | Error _ -> Alcotest.fail (label ^ " must serve valid input")
          | exception e ->
              Alcotest.fail (label ^ " raised " ^ Printexc.to_string e))
        corner_budgets)
    corner_inputs

let prop_ladder_serves_random_inputs =
  QCheck.Test.make ~name:"ladder serves random inputs soundly" ~count:60
    QCheck.(
      triple
        (array_of_size (Gen.oneofl [ 1; 2; 4; 8; 16; 32 ])
           (float_range (-100.) 100.))
        (int_bound 40) (int_bound 1000))
    (fun (data, budget, seed) ->
      let fault = Fault.create ~rate:0.3 ~seed () in
      (* The shrinker may hand us empty / non-pow2 arrays: those must
         come back as structured errors, never exceptions. *)
      let invalid =
        Array.length data = 0 || not (Float_util.is_pow2 (Array.length data))
      in
      match Ladder.serve ~fault ~data ~budget Metrics.Abs with
      | Error _ -> invalid
      | Ok s ->
          Float.is_finite s.Ladder.max_err
          && Synopsis.size s.Ladder.synopsis <= budget
          && Float_util.approx_equal ~eps:1e-9 s.Ladder.max_err
               (Metrics.of_synopsis Metrics.Abs ~data s.Ladder.synopsis))

let prop_ladder_expired_still_serves =
  QCheck.Test.make ~name:"deadline-expired ladder always serves" ~count:40
    QCheck.(
      triple
        (array_of_size (Gen.oneofl [ 16; 32; 64 ]) (float_range (-50.) 50.))
        (int_bound 10) (int_bound 1000))
    (fun (data, budget, seed) ->
      let invalid =
        Array.length data = 0 || not (Float_util.is_pow2 (Array.length data))
      in
      (* Every bounded tier expires at its first DP state. *)
      let fault = Fault.create ~kinds:[ Fault.Expire_deadline ] ~seed () in
      match Ladder.serve ~fault ~data ~budget Metrics.Abs with
      | Error _ -> invalid
      | Ok s ->
          s.Ladder.tier = Ladder.Greedy_maxerr
          && Float.is_finite s.Ladder.max_err)

(* Ladder invariants: tiers are tried in their canonical degradation
   order (the greedy floor may appear twice — faulted, then fault-free),
   the serving attempt is always last, and the reported guarantee is
   exactly what a fresh [Metrics] re-measure of the served synopsis on
   the pristine input yields. *)
let tier_rank ~epsilon = function
  | Ladder.Minmax -> 0
  | Ladder.Approx_additive { epsilon = e } ->
      if Float_util.approx_equal ~eps:1e-12 e epsilon then 1 else 2
  | Ladder.Greedy_maxerr -> 3

let prop_ladder_attempt_order =
  QCheck.Test.make ~name:"attempts try tiers in ladder order, served last"
    ~count:80
    QCheck.(
      triple
        (array_of_size (Gen.oneofl [ 8; 16; 32; 64 ]) (float_range (-50.) 50.))
        (int_bound 8) (int_bound 1000))
    (fun (data, budget, seed) ->
      let invalid =
        Array.length data = 0 || not (Float_util.is_pow2 (Array.length data))
      in
      let epsilon = 0.25 in
      let fault = Fault.create ~rate:0.4 ~seed () in
      (* The plan arms [Expire_deadline] with the other kinds, so upper
         tiers time out and the order property is exercised across real
         degradations. *)
      match Ladder.serve ~epsilon ~fault ~data ~budget Metrics.Abs with
      | Error _ -> invalid
      | Ok s ->
          let ranks =
            List.map
              (fun (a : Ladder.attempt) -> tier_rank ~epsilon a.Ladder.tier)
              s.Ladder.attempts
          in
          let rec ordered = function
            | a :: (b :: _ as tl) ->
                (a < b || (a = b && a = 3)) && ordered tl
            | _ -> true
          in
          let rec last = function
            | [ a ] -> Some a
            | _ :: tl -> last tl
            | [] -> None
          in
          ordered ranks
          && (match last s.Ladder.attempts with
             | Some a ->
                 a.Ladder.outcome = Ladder.Answered && a.Ladder.tier = s.Ladder.tier
             | None -> false)
          && List.for_all
               (fun (a : Ladder.attempt) ->
                 a.Ladder.outcome <> Ladder.Answered
                 || a.Ladder.tier = s.Ladder.tier)
               s.Ladder.attempts)

let prop_ladder_guarantee_is_remeasured =
  QCheck.Test.make
    ~name:"served guarantee equals a fresh Metrics re-measure" ~count:80
    QCheck.(
      triple
        (array_of_size (Gen.oneofl [ 8; 16; 32; 64 ]) (float_range (-50.) 50.))
        (int_bound 8) (int_bound 1000))
    (fun (data, budget, seed) ->
      let invalid =
        Array.length data = 0 || not (Float_util.is_pow2 (Array.length data))
      in
      let fault = Fault.create ~rate:0.4 ~seed () in
      let metric =
        if seed mod 2 = 0 then Metrics.Abs else Metrics.Rel { sanity = 1.0 }
      in
      match Ladder.serve ~fault ~data ~budget metric with
      | Error _ -> invalid
      | Ok s ->
          (* Bit-exact: the ladder promises a *measured* guarantee, not
             a solver-reported one. *)
          Float.equal s.Ladder.max_err
            (Metrics.of_synopsis metric ~data s.Ladder.synopsis))

let prop_validated_ingestion_total =
  QCheck.Test.make ~name:"Validate.data never raises" ~count:200
    QCheck.(
      array_of_size (Gen.int_bound 20)
        (oneof [ float_range (-1e12) 1e12; always Float.nan; always Float.infinity ]))
    (fun data ->
      match Validate.data data with
      | Ok _ | Error _ -> true)

let () =
  Alcotest.run "robust"
    [
      ( "validate",
        [
          Alcotest.test_case "parse_float" `Quick test_parse_float;
          Alcotest.test_case "read_file" `Quick test_read_file;
          Alcotest.test_case "read_file caps" `Quick test_read_file_caps;
          Alcotest.test_case "read_updates" `Quick test_read_updates;
          Alcotest.test_case "CRLF / newline-less final line" `Quick
            test_read_line_endings;
          Alcotest.test_case "data / budget / epsilon" `Quick test_data_checks;
          QCheck_alcotest.to_alcotest prop_validated_ingestion_total;
        ] );
      ( "retry",
        [
          Alcotest.test_case "backoff is seeded and bounded" `Quick
            test_retry_backoff_deterministic;
          Alcotest.test_case "with_retries" `Quick test_with_retries;
          Alcotest.test_case "breaker lifecycle" `Quick test_breaker_lifecycle;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "corrupt generations fall back" `Quick
            test_snapshot_corrupt_falls_back;
          Alcotest.test_case "rotation prunes" `Quick
            test_snapshot_prunes_generations;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip and since" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncates at first corruption, repairs" `Quick
            test_journal_truncates_at_corruption;
          Alcotest.test_case "torn tail and rotation" `Quick
            test_journal_torn_tail_and_rotation;
          Alcotest.test_case "ship cursor pages and completes" `Quick
            test_journal_ship_cursor;
          Alcotest.test_case "shipped batch rejects bit flips" `Quick
            test_journal_ship_rejects_bit_flip;
          Alcotest.test_case "ship vs torn boundary and compaction" `Quick
            test_journal_ship_torn_boundary_and_compaction;
          Alcotest.test_case "ship clamps the unacked suffix" `Quick
            test_journal_ship_clamps_unacked_suffix;
          Alcotest.test_case "ship serves a fully compacted WAL" `Quick
            test_journal_ship_fully_compacted;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "served bound stays sound under updates" `Quick
            test_incremental_bound_sound;
          Alcotest.test_case "bound is exact after a full cut" `Quick
            test_incremental_bound_tight;
          Alcotest.test_case "write-path digest" `Quick test_write_path_digest;
          Alcotest.test_case "write-path allocation" `Quick
            test_write_path_allocation;
          Alcotest.test_case "replicas converge bit-identically" `Quick
            test_incremental_deterministic_replicas;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "state cap trips" `Quick test_deadline_state_cap;
          Alcotest.test_case "unlimited never trips" `Quick
            test_deadline_unlimited;
          Alcotest.test_case "time budget trips" `Quick test_deadline_time;
          Alcotest.test_case "probe forces expiry" `Quick
            test_deadline_probe_forces_expiry;
          Alcotest.test_case "threads through Minmax_dp" `Quick
            test_minmax_deadline_threading;
          Alcotest.test_case "threads through Approx_additive" `Quick
            test_approx_deadline_threading;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "1ms deadline on N=4096 degrades" `Quick
            test_ladder_tiny_deadline_degrades;
          Alcotest.test_case "no deadline serves the exact optimum" `Quick
            test_ladder_no_deadline_is_exact;
          Alcotest.test_case "unbounded serve allocates O(n) words" `Quick
            test_ladder_unbounded_allocation;
          Alcotest.test_case "invalid input is a structured error" `Quick
            test_ladder_rejects_bad_input;
          Alcotest.test_case "corner inputs" `Quick test_ladder_corners;
          Alcotest.test_case "pressure to tier map" `Quick
            test_ladder_top_of_pressure;
          QCheck_alcotest.to_alcotest prop_ladder_serves_random_inputs;
          QCheck_alcotest.to_alcotest prop_ladder_expired_still_serves;
          QCheck_alcotest.to_alcotest prop_ladder_attempt_order;
          QCheck_alcotest.to_alcotest prop_ladder_guarantee_is_remeasured;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "expire-deadline" `Quick
            (chaos_case Fault.Expire_deadline);
          Alcotest.test_case "nan-coefficient" `Quick
            (chaos_case Fault.Nan_coefficient);
          Alcotest.test_case "alloc-pressure" `Quick
            (chaos_case Fault.Alloc_pressure);
          Alcotest.test_case "expire degrades to greedy" `Quick
            test_chaos_expire_degrades;
          Alcotest.test_case "pressure recovers at the floor" `Quick
            test_chaos_alloc_pressure_recovers;
          Alcotest.test_case "all kinds together" `Quick
            test_chaos_all_kinds_together;
        ] );
      ( "solver corners",
        [ Alcotest.test_case "adversarial inputs" `Quick test_solver_corners ]
      );
    ]
