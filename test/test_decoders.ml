(* The decoders of untrusted bytes: wire frames, Conn reassembly, INGEST
   storms, journal lines and SHIP batches, snapshots and the store
   manifest.

   Two halves. The golden strings pin the exact bytes every encoder
   writes, so stores and followers of an older build keep working; the
   fuzz properties feed each decoder random bytes, every single-bit flip
   of a valid encoding, and truncations, and require that it never
   raises and returns [Ok] only with the original value. *)

module Journal = Wavesyn_robust.Journal
module Snapshot = Wavesyn_robust.Snapshot
module Supervisor = Wavesyn_robust.Supervisor
module Metrics = Wavesyn_synopsis.Metrics
module Wire = Wavesyn_server.Wire
module Conn = Wavesyn_server.Conn
module Crc32 = Wavesyn_util.Crc32

let checks = Alcotest.(check string)

(* --- golden bytes --- *)

let record seq i delta = { Journal.seq; i; delta }

let test_golden_journal () =
  checks "one record" "7 3 -0x1.8p-2 822a0619\n"
    (Journal.encode (record 7 3 (-0.375)));
  checks "complete batch"
    "ship 4 2 6 1\n5 0 0x1.8p+0 419bf5b0\n\
     6 12 -0x1.999999999999ap-4 0520e855\nend a4446892\n"
    (Journal.encode_batch
       {
         Journal.b_since = 4;
         b_last_seq = 6;
         b_complete = true;
         b_records = [ record 5 0 1.5; record 6 12 (-0.1) ];
       });
  checks "empty incomplete batch" "ship 9 0 12 0\nend 02576d7a\n"
    (Journal.encode_batch
       {
         Journal.b_since = 9;
         b_last_seq = 12;
         b_complete = false;
         b_records = [];
       })

let test_golden_storm () =
  checks "storm"
    "storm 3\n3 0x1p-1 0197b389\n7 -0x1p-2 c206d3e7\n\
     1023 0x1.56e1fc2f8f359p-997 19f6d96a\nend 371db266\n"
    (Wire.encode_storm [ (3, 0.5); (7, -0.25); (1023, 1e-300) ])

let snapshot_state =
  {
    Snapshot.seq = 11;
    n = 8;
    updates = 5;
    coeffs = [ (0, 2.25); (3, -0.5); (6, 1e-3) ];
  }

let test_golden_snapshot () =
  checks "sealed snapshot"
    "wavesyn-snapshot v1\nseq 11\nn 8\nupdates 5\ncoeffs 3\n0 0x1.2p+1\n\
     3 -0x1p-1\n6 0x1.0624dd2f1a9fcp-10\ncrc 98a79737\n"
    (Snapshot.seal (Snapshot.encode snapshot_state))

let abs_config = Supervisor.config ~dir:"d" ~n:16 ~budget:4 Metrics.Abs

let rel_config =
  Supervisor.config ~epsilon:0.5 ~dir:"d" ~n:64 ~budget:8
    (Metrics.Rel { sanity = 2.5 })

let test_golden_manifest () =
  checks "abs manifest"
    "wavesyn-store v1\nn 16\nbudget 4\nmetric abs\nepsilon 0x1p-2\n\
     crc 5f6764ff\n"
    (Supervisor.manifest_text abs_config);
  checks "rel manifest"
    "wavesyn-store v1\nn 64\nbudget 8\nmetric rel 0x1.4p+1\nepsilon 0x1p-1\n\
     crc 0f0a0866\n"
    (Supervisor.manifest_text rel_config)

let mixed_batch =
  Wire.Batch
    [
      Wire.Ping;
      Wire.Point 5;
      Wire.Range { lo = 2; hi = 9 };
      Wire.Quantile 0.75;
      Wire.Stats;
      Wire.Update { i = 4; delta = -1.25 };
    ]

let test_golden_batch_frame () =
  checks "mixed BATCH frame"
    "WSYN\001\006\000\000\000>\000\000\000\000\000\000\000\006\001\002\000\
     \000\000\000\000\000\000\005\003\000\000\000\000\000\000\000\002\000\
     \000\000\000\000\000\000\t\004?\232\000\000\000\000\000\000\005\n\000\
     \000\000\000\000\000\000\004\191\244\000\000\000\000\000\000\133\157\
     \195\233"
    (Wire.encode_request mixed_batch)

(* --- canonical CRC fields --- *)

let test_crc_of_hex_canonical () =
  let checko name expected got =
    Alcotest.(check (option int)) name expected got
  in
  checko "to_hex round-trips" (Some 0xdeadbeef)
    (Crc32.of_hex (Crc32.to_hex 0xdeadbeef));
  checko "leading zeros" (Some 0x2576d7a) (Crc32.of_hex "02576d7a");
  checko "underscore separators" None (Crc32.of_hex "0_______");
  checko "uppercase" None (Crc32.of_hex "DEADBEEF");
  checko "one uppercase digit" None (Crc32.of_hex "deadbeeF");
  checko "sign" None (Crc32.of_hex "+1234567");
  checko "short" None (Crc32.of_hex "1234567");
  checko "long" None (Crc32.of_hex "123456789");
  checko "prefixed" None (Crc32.of_hex "0x123456")

(* --- fuzzing --- *)

let seeded test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |]) test

(* Every single-bit flip of [s]. *)
let flips s =
  List.init (8 * String.length s) (fun bit ->
      let b = Bytes.of_string s in
      let i = bit / 8 in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl (bit mod 8))));
      Bytes.to_string b)

let prefixes s = List.init (String.length s) (String.sub s 0)

let any_bytes = QCheck.Gen.(string_size ~gen:char (int_bound 96))

(* [decode] never raises. It round-trips [encode v], rejects every
   single-bit flip and every strict prefix of it, and yields [Some] on
   random bytes only with [v] (as [same] judges it). *)
let decoder_test ~name ?(count = 40) ~print gen ~encode ~decode ~same () =
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun (v, _) -> print v)
       QCheck.Gen.(pair gen (list_size (int_bound 8) any_bytes)))
    (fun (v, garbage) ->
      let s = encode v in
      let decoded input =
        try decode input
        with e ->
          QCheck.Test.fail_reportf "%s raised %s on %S" name
            (Printexc.to_string e) input
      in
      (match decoded s with
      | Some v' when same v v' -> ()
      | _ -> QCheck.Test.fail_reportf "%s: %S does not round-trip" name s);
      List.for_all
        (fun g -> g = s || Option.fold ~none:true ~some:(same v) (decoded g))
        garbage
      && List.for_all
           (fun input -> Option.is_none (decoded input))
           (flips s @ prefixes s))

let finite_float =
  QCheck.Gen.(
    map
      (fun bits ->
        let f = Int64.float_of_bits bits in
        if Float.is_finite f then f else 0.5)
      int64)

let gen_record =
  QCheck.Gen.(
    map3
      (fun seq i delta -> { Journal.seq = seq + 1; i; delta })
      nat nat finite_float)

let prop_journal_line =
  decoder_test ~name:"Journal.decode_line" ~count:200 ~print:Journal.encode
    gen_record
    ~encode:(fun r ->
      let line = Journal.encode r in
      String.sub line 0 (String.length line - 1))
    ~decode:Journal.decode_line ~same:( = ) ()

let gen_batch =
  QCheck.Gen.(
    map3
      (fun since records complete ->
        let records =
          List.mapi (fun k r -> { r with Journal.seq = since + 1 + k }) records
        in
        let last = since + List.length records in
        {
          Journal.b_since = since;
          b_last_seq = (if complete then last else last + 3);
          b_complete = complete;
          b_records = records;
        })
      nat
      (list_size (int_bound 4) gen_record)
      bool)

let result_opt = function Ok v -> Some v | Error _ -> None

let prop_journal_batch =
  decoder_test ~name:"Journal.decode_batch" ~count:100
    ~print:Journal.encode_batch gen_batch ~encode:Journal.encode_batch
    ~decode:(fun s -> result_opt (Journal.decode_batch s))
    ~same:( = ) ()

let gen_deltas =
  QCheck.Gen.(list_size (int_bound 4) (pair nat finite_float))

let prop_storm =
  decoder_test ~name:"Wire.decode_storm" ~count:100 ~print:Wire.encode_storm
    gen_deltas ~encode:Wire.encode_storm
    ~decode:(fun s -> result_opt (Wire.decode_storm s))
    ~same:( = ) ()

let gen_snapshot =
  QCheck.Gen.(
    map3
      (fun seq updates cells ->
        let n = 16 in
        let coeffs =
          List.sort_uniq (fun (a, _) (b, _) -> compare a b)
            (List.map (fun (j, c) -> (j mod n, c)) cells)
          |> List.filter (fun (_, c) -> c <> 0.)
        in
        { Snapshot.seq; n; updates; coeffs })
      nat nat
      (list_size (int_bound 5) (pair nat finite_float)))

let sealed_snapshot st = Snapshot.seal (Snapshot.encode st)

let prop_snapshot =
  decoder_test ~name:"Snapshot.decode" ~count:60 ~print:sealed_snapshot
    gen_snapshot ~encode:sealed_snapshot
    ~decode:(fun s -> result_opt (Snapshot.decode s))
    ~same:( = ) ()

(* A CRC-valid snapshot naming one coefficient index twice is refused,
   whatever the two values: a zero entry is never stored, so a zero
   first entry is the case only an explicit check catches. *)
let prop_snapshot_duplicate =
  QCheck.Test.make ~name:"Snapshot.decode duplicate index" ~count:60
    (QCheck.make
       ~print:(fun (st, _, _) -> sealed_snapshot st)
       QCheck.Gen.(triple gen_snapshot (int_bound 15) (opt finite_float)))
    (fun (st, j, first) ->
      let first = Option.value ~default:0. first in
      let coeffs = (j, first) :: List.filter (fun (k, _) -> k <> j) st.coeffs in
      let twice = coeffs @ [ (j, 1.5) ] in
      Result.is_error
        (Snapshot.decode (sealed_snapshot { st with Snapshot.coeffs = twice })))

let gen_config =
  QCheck.Gen.(
    map3
      (fun log_n budget rel ->
        let metric =
          match rel with
          | None -> Metrics.Abs
          | Some s -> Metrics.Rel { sanity = 0.5 +. float_of_int s }
        in
        Supervisor.config ~epsilon:0.125 ~dir:"d" ~n:(1 lsl log_n) ~budget
          metric)
      (int_bound 12) nat (opt (int_bound 9)))

let prop_manifest =
  decoder_test ~name:"Supervisor.config_of_manifest" ~count:60
    ~print:Supervisor.manifest_text gen_config ~encode:Supervisor.manifest_text
    ~decode:(fun s -> result_opt (Supervisor.config_of_manifest ~dir:"d" s))
    ~same:(fun a b ->
      Supervisor.manifest_text a = Supervisor.manifest_text b)
    ()

(* Wire values: a value is judged by its canonical bytes, which also
   compares floats by their bit patterns. *)

let gen_int = QCheck.Gen.(map Int64.to_int int64)
let gen_float = QCheck.Gen.(map Int64.float_of_bits int64)

let gen_batchable =
  QCheck.Gen.(
    oneof
      [
        return Wire.Ping;
        map (fun i -> Wire.Point i) gen_int;
        map2 (fun lo hi -> Wire.Range { lo; hi }) gen_int gen_int;
        map (fun q -> Wire.Quantile q) gen_float;
        return Wire.Stats;
        map2 (fun i delta -> Wire.Update { i; delta }) gen_int gen_float;
      ])

let gen_request =
  QCheck.Gen.(
    frequency
      [
        (6, gen_batchable);
        ( 2,
          map (fun rs -> Wire.Batch rs) (list_size (int_bound 6) gen_batchable)
        );
        (1, return Wire.Shutdown);
        (1, map2 (fun since max -> Wire.Sync { since; max }) gen_int gen_int);
        (1, return Wire.Handoff);
        (1, map (fun d -> Wire.Ingest d) gen_deltas);
        (1, map (fun l -> Wire.Retier l) gen_int);
      ])

let gen_reply =
  let str = QCheck.Gen.(string_size ~gen:char (int_bound 24)) in
  QCheck.Gen.(
    oneof
      [
        return Wire.Pong;
        map (fun v -> Wire.Value v) gen_float;
        map (fun i -> Wire.Quantile_pos i) gen_int;
        map (fun s -> Wire.Stats_text s) str;
        map3
          (fun bound depth tier -> Wire.Overload { bound; depth; tier })
          gen_int gen_int str;
        return Wire.Bye;
        map2
          (fun code message -> Wire.Error { code; message })
          (oneofl
             Wire.[ Bad_request; Out_of_range; Unanswerable; Shutting_down;
                    Internal ])
          str;
        map3
          (fun (last_seq, complete) manifest body ->
            Wire.Ship { last_seq; complete; manifest; body })
          (pair gen_int bool) str
          (oneof
             [
               return Wire.Ship_none;
               map (fun s -> Wire.Ship_records s) str;
               map (fun s -> Wire.Ship_snapshot s) str;
             ]);
        map2 (fun seq role -> Wire.Handoff_ack { seq; role }) gen_int str;
        map (fun seq -> Wire.Acked { seq }) gen_int;
      ])

let encode_frame = function
  | Wire.Req r -> Wire.encode_request r
  | Wire.Rep r -> Wire.encode_reply r

let gen_frame =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun r -> Wire.Req r) gen_request);
        (2, map (fun r -> Wire.Rep r) gen_reply);
      ])

(* A whole frame decodes to itself; anything else is [None]. *)
let decode_frame s =
  match Wire.decode (Bytes.of_string s) ~pos:0 ~len:(String.length s) with
  | `Frame (f, next) when next = String.length s -> Some f
  | `Frame _ | `Incomplete | `Corrupt _ -> None

let same_frame a b = encode_frame a = encode_frame b

let prop_wire_frame =
  decoder_test ~name:"Wire.decode" ~count:200 ~print:encode_frame gen_frame
    ~encode:encode_frame ~decode:decode_frame ~same:same_frame ()

(* A frame of any kind byte and any payload under a valid header and
   CRC: the per-kind payload decoders see arbitrary bytes, and accept
   only payloads their encoder would have written. *)
let sealed_frame kind payload =
  let plen = String.length payload in
  let b = Bytes.create (14 + plen) in
  Bytes.blit_string Wire.magic 0 b 0 4;
  Bytes.set_uint8 b 4 Wire.version;
  Bytes.set_uint8 b 5 kind;
  Bytes.set_int32_be b 6 (Int32.of_int plen);
  Bytes.blit_string payload 0 b 10 plen;
  let crc = Crc32.update_bytes 0 b ~pos:4 ~len:(6 + plen) in
  Bytes.set_int32_be b (10 + plen) (Int32.of_int crc);
  Bytes.to_string b

let prop_wire_payloads =
  QCheck.Test.make ~name:"Wire.decode on arbitrary payloads" ~count:2000
    (QCheck.make
       ~print:(fun (kind, p) -> Printf.sprintf "kind 0x%02x payload %S" kind p)
       QCheck.Gen.(
         pair
           (oneof [ int_range 0x01 0x0D; int_range 0x81 0x8B; int_bound 255 ])
           (oneof
              [
                string_size ~gen:char (int_bound 40);
                map
                  (fun (count, body) ->
                    let b = Buffer.create 16 in
                    Buffer.add_int64_be b (Int64.of_int count);
                    Buffer.add_string b body;
                    Buffer.contents b)
                  (pair (int_bound 4) (string_size ~gen:char (int_bound 40)));
              ])))
    (fun (kind, payload) ->
      let s = sealed_frame kind payload in
      match Wire.decode (Bytes.of_string s) ~pos:0 ~len:(String.length s) with
      | `Frame (f, next) -> next = String.length s && encode_frame f = s
      | `Corrupt _ -> true
      | `Incomplete -> QCheck.Test.fail_report "a whole frame is incomplete"
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let frames_of_stream s =
  let buf = Bytes.of_string s in
  let rec go pos acc =
    match Wire.decode buf ~pos ~len:(Bytes.length buf) with
    | `Frame (f, next) -> go next (f :: acc)
    | `Incomplete -> List.rev acc
    | `Corrupt r -> QCheck.Test.fail_reportf "corrupt stream: %s" r
  in
  go 0 []

let rec take k = function
  | x :: tl when k > 0 -> x :: take (k - 1) tl
  | _ -> []

(* Several frames back to back, cut at every point: each strict prefix
   yields the frames it holds whole and then [`Incomplete]. *)
let prop_wire_stream =
  QCheck.Test.make ~name:"Wire.decode reassembles a cut stream" ~count:100
    (QCheck.make
       ~print:(fun fs -> String.concat "" (List.map encode_frame fs))
       QCheck.Gen.(list_size (int_range 1 4) gen_frame))
    (fun frames ->
      let encoded = List.map encode_frame frames in
      let stream = String.concat "" encoded in
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) e ->
                  let at = at + String.length e in
                  (at, at :: acc))
                (0, []) encoded))
      in
      List.for_all
        (fun cut ->
          let got = frames_of_stream (String.sub stream 0 cut) in
          let whole = List.length (List.filter (fun e -> e <= cut) ends) in
          List.length got = whole
          && List.for_all2 same_frame got (take whole frames))
        (List.init (String.length stream + 1) Fun.id))

(* --- Conn reassembly over a socketpair --- *)

let with_conn f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a (Conn.create ~id:0 ~now_ms:0. b))

(* Write [s] in the given chunk sizes (cycled), reading after each. *)
let feed a conn s chunks =
  let events = ref [] in
  let rec go pos k =
    if pos < String.length s then begin
      let chunk = List.nth chunks (k mod List.length chunks) in
      let size = min (String.length s - pos) chunk in
      ignore (Unix.write_substring a s pos size);
      let evs, _ = Conn.read conn ~now_ms:0. in
      events := List.rev_append evs !events;
      go (pos + size) (k + 1)
    end
  in
  go 0 0;
  List.rev !events

let prop_conn_chunks =
  QCheck.Test.make ~name:"Conn.read reassembles random-size chunks" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 5) gen_request)
           (list_size (int_range 1 4) (int_range 1 40))))
    (fun (requests, chunks) ->
      with_conn (fun a conn ->
          let stream =
            String.concat "" (List.map Wire.encode_request requests)
          in
          let got =
            List.map
              (function
                | Conn.Request r -> Wire.encode_request r
                | Conn.Bad_line r | Conn.Corrupt r ->
                    QCheck.Test.fail_reportf "valid stream read as %s" r)
              (feed a conn stream chunks)
          in
          got = List.map Wire.encode_request requests))

let prop_conn_garbage =
  QCheck.Test.make ~name:"Conn.read survives garbage" ~count:300
    (QCheck.make
       ~print:(fun (g, _) -> Printf.sprintf "%S" g)
       QCheck.Gen.(
         pair
           (oneof
              [
                any_bytes;
                map (fun s -> "WSYN\001" ^ s) any_bytes;
                (* a POINT frame whose payload is short of its 8 bytes *)
                map (sealed_frame 0x02) (string_size ~gen:char (int_bound 7));
              ])
           (list_size (int_range 1 4) (int_range 1 40))))
    (fun (garbage, chunks) ->
      with_conn (fun a conn ->
          match feed a conn garbage chunks with
          | events ->
              List.for_all
                (function
                  | Conn.Corrupt _ | Conn.Bad_line _ -> true
                  | Conn.Request _ -> false)
                events
          | exception e ->
              QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)))

(* Replies framed in place: a random reply sequence (every constructor,
   every error code and SHIP body) framed back to back into one buffer
   with [Wire.frame_reply] is the concatenated [Wire.encode_reply]
   bytes, decodes back reply by reply at successive offsets, and is
   what a connection queuing the same replies puts on the wire. *)
let prop_reply_framing =
  QCheck.Test.make ~name:"Wire.frame_reply = encode_reply, in one buffer"
    ~count:200
    (QCheck.make
       ~print:(fun rs -> String.concat "; " (List.map Wire.describe_reply rs))
       QCheck.Gen.(list_size (int_range 1 12) gen_reply))
    (fun replies ->
      let encoded = String.concat "" (List.map Wire.encode_reply replies) in
      let b =
        Bytes.create
          (List.fold_left
             (fun acc r -> acc + Wire.reply_frame_length r)
             0 replies)
      in
      let stop =
        List.fold_left (fun pos r -> Wire.frame_reply b ~pos r) 0 replies
      in
      let rec decode_all pos = function
        | [] -> pos = Bytes.length b
        | r :: rest -> (
            match Wire.decode b ~pos ~len:(Bytes.length b) with
            | `Frame ((Wire.Rep _ as f), next) ->
                same_frame f (Wire.Rep r) && decode_all next rest
            | _ -> false)
      in
      let queued =
        with_conn (fun a conn ->
            List.iter (Conn.queue_reply conn) replies;
            (match Conn.flush conn with
            | `Drained -> ()
            | `More | `Peer_gone -> QCheck.Test.fail_report "flush stalled");
            let got = Bytes.create (String.length encoded) in
            let rec read off =
              if off < Bytes.length got then
                read (off + Unix.read a got off (Bytes.length got - off))
            in
            read 0;
            Bytes.to_string got)
      in
      stop = Bytes.length b
      && Bytes.to_string b = encoded
      && decode_all 0 replies
      && queued = encoded)

let () =
  Alcotest.run "decoders"
    [
      ( "golden bytes",
        [
          Alcotest.test_case "journal record and batches" `Quick
            test_golden_journal;
          Alcotest.test_case "INGEST storm" `Quick test_golden_storm;
          Alcotest.test_case "sealed snapshot" `Quick test_golden_snapshot;
          Alcotest.test_case "store manifest" `Quick test_golden_manifest;
          Alcotest.test_case "mixed BATCH frame" `Quick test_golden_batch_frame;
        ] );
      ( "crc",
        [
          Alcotest.test_case "canonical fields" `Quick
            test_crc_of_hex_canonical;
        ] );
      ( "fuzz",
        List.map seeded
          [
            prop_journal_line;
            prop_journal_batch;
            prop_storm;
            prop_snapshot;
            prop_snapshot_duplicate;
            prop_manifest;
            prop_wire_frame;
            prop_wire_payloads;
            prop_wire_stream;
            prop_conn_chunks;
            prop_conn_garbage;
            prop_reply_framing;
          ] );
    ]
