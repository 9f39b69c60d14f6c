(* Workload-adaptive serving suite: the shared mix string form, the
   workload profiler, pre-cut tier ladders, the epoch-keyed result
   cache, the sharded router's
   sub-range memo at quantile shard boundaries, and the end-to-end
   cache-on/cache-off transcript byte-identity proof over live
   sockets.

   Run via `dune runtest` or in isolation via `dune build @adaptive`.
   A watchdog alarm fails the whole suite rather than letting a hung
   socket test wedge the runner. *)

module Prng = Wavesyn_util.Prng
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Quantiles = Wavesyn_aqp.Quantiles
module Workload = Wavesyn_aqp.Workload
module Ladder = Wavesyn_robust.Ladder
module Validate = Wavesyn_robust.Validate
module Registry = Wavesyn_obs.Registry
module Pool = Wavesyn_par.Pool
module Profiler = Wavesyn_adaptive.Profiler
module Tiers = Wavesyn_adaptive.Tiers
module Rcache = Wavesyn_adaptive.Rcache
module Wire = Wavesyn_server.Wire
module Shard = Wavesyn_server.Shard
module Server = Wavesyn_server.Server
module Client = Wavesyn_server.Client
module Loadgen = Wavesyn_server.Loadgen

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Watchdog: a hung socket test must fail the suite, not wedge it. *)
let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline
           "adaptive watchdog: a socket test hung past the deadline";
         exit 124));
  ignore (Unix.alarm 300)

let sock_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "%s/wavesyn-adaptive-%d-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ()) !counter

let must_s = function Ok v -> v | Error reason -> Alcotest.fail reason

let must = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Validate.to_string e)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* Integer-valued positive data: exact under budget >= n, quantiles
   answerable. *)
let exact_data n = Array.init n (fun i -> float_of_int (((i * 37) mod 101) + 3))

(* --- the shared mix string form --- *)

let test_mix_strings () =
  let m =
    must_s (Workload.mix_of_string "points=10,ranges=70,selectivities=10,quantiles=10")
  in
  checki "points" 10 m.Workload.points;
  checki "ranges" 70 m.Workload.ranges;
  checki "selectivities" 10 m.Workload.selectivities;
  checki "quantiles" 10 m.Workload.quantiles;
  (* Round-trip through the canonical rendering. *)
  checks "round-trip" "points=10,ranges=70,selectivities=10,quantiles=10"
    (Workload.mix_to_string m);
  check "reparse equals" true
    (must_s (Workload.mix_of_string (Workload.mix_to_string m)) = m);
  (* Omitted kinds get weight zero. *)
  let m = must_s (Workload.mix_of_string "ranges=3") in
  checki "omitted points" 0 m.Workload.points;
  checki "kept ranges" 3 m.Workload.ranges;
  (* Structured parse errors. *)
  let fails s expected =
    match Workload.mix_of_string s with
    | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" s)
    | Error reason ->
        check (Printf.sprintf "%S error mentions %S" s expected) true
          (contains reason expected)
  in
  fails "tempo=3" "unknown mix kind";
  fails "ranges=riches" "bad mix weight";
  fails "ranges" "want kind=weight";
  fails "ranges=-1" "bad mix weight";
  fails "points=0,ranges=0" "no positive weight";
  (* The load generator accepts the same plural spec and maps
     selectivities onto its own flat mix. *)
  let lm =
    must_s (Loadgen.mix_of_string "points=1,ranges=2,selectivities=3,quantiles=4")
  in
  checki "loadgen point alias" 1 lm.Loadgen.point;
  checki "loadgen range alias" 2 lm.Loadgen.range;
  checki "loadgen selectivity alias" 3 lm.Loadgen.selectivity;
  checki "loadgen quantile alias" 4 lm.Loadgen.quantile;
  check "loadgen singular spec still parses" true
    (Loadgen.mix_of_string "point=4,range=3,quantile=2,ping=1"
    = Ok Loadgen.default_mix)

(* --- the workload profiler --- *)

let test_profiler () =
  let p = Profiler.create () in
  checki "empty total" 0 (Profiler.total p);
  List.iter (Profiler.observe p)
    [ `Range; `Point; `Range; `Quantile; `Range; `Selectivity ];
  let m = Profiler.observed p in
  checki "points observed" 1 m.Workload.points;
  checki "ranges observed" 3 m.Workload.ranges;
  checki "selectivities observed" 1 m.Workload.selectivities;
  checki "quantiles observed" 1 m.Workload.quantiles;
  checki "total" 6 (Profiler.total p);
  (* With a registry, the sketch is exposed as adaptive.observed. *)
  let obs = Registry.create () in
  let p = Profiler.create ~obs () in
  Profiler.observe p `Range;
  check "adaptive.observed exported" true
    (contains (Registry.render_table obs) "adaptive.observed")

(* --- pre-cut tiers --- *)

let heavy_mix = must_s (Workload.mix_of_string "points=2,ranges=5,quantiles=3")
let point_mix = must_s (Workload.mix_of_string "points=9,ranges=1")

let test_tiers_plan () =
  (* Point-heavy: geometric decay. *)
  check "light schedule" true
    (Tiers.plan ~budget:8 ~levels:3 ~mix:point_mix = [ 8; 4; 2 ]);
  (* Range/quantile-heavy: every degraded level floored at half. *)
  check "heavy schedule" true
    (Tiers.plan ~budget:8 ~levels:3 ~mix:heavy_mix = [ 8; 4; 4 ]);
  check "budget floor is 1" true
    (Tiers.plan ~budget:1 ~levels:3 ~mix:point_mix = [ 1; 1; 1 ]);
  check "levels < 1 rejected" true
    (match Tiers.plan ~budget:8 ~levels:0 ~mix:point_mix with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "budget < 1 rejected" true
    (match Tiers.plan ~budget:0 ~levels:1 ~mix:point_mix with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_tiers_build () =
  let data = exact_data 32 in
  let ts =
    must
      (Tiers.build ~epsilon:0.25 ~metric:Metrics.Abs ~data ~budget:8 ~levels:3
         ~mix:point_mix ~seq:7)
  in
  checki "levels" 3 (Tiers.levels ts);
  checki "built seq recorded" 7 (Tiers.built_seq ts);
  check "fresh at its seq" true (Tiers.fresh ts ~seq:7);
  check "stale after a write" false (Tiers.fresh ts ~seq:8);
  let e0 = Tiers.select ts ~level:0 in
  let e1 = Tiers.select ts ~level:1 in
  let e2 = Tiers.select ts ~level:2 in
  checki "level 0 full budget" 8 e0.Tiers.e_budget;
  checki "level 1 half budget" 4 e1.Tiers.e_budget;
  checki "level 2 quarter budget" 2 e2.Tiers.e_budget;
  check "names carry budget and tier" true
    (contains e0.Tiers.e_name "precut(b=8," && contains e2.Tiers.e_name "b=2");
  (* Out-of-range levels clamp to the built range. *)
  check "negative level clamps" true (Tiers.select ts ~level:(-1) == e0);
  check "deep level clamps" true (Tiers.select ts ~level:9 == e2);
  (* Level 0 is exactly the cut the classic re-cut path makes at
     pressure 0: same top, same budget, same data — same coefficients. *)
  let served =
    must
      (Ladder.serve ~epsilon:0.25 ~top:`Minmax ~data ~budget:8 Metrics.Abs)
  in
  check "level 0 equals the classic pressure-0 cut" true
    (Synopsis.coeffs e0.Tiers.e_synopsis
    = Synopsis.coeffs served.Ladder.synopsis);
  check "describe joins the names" true
    (contains (Tiers.describe ts) e1.Tiers.e_name)

(* --- the epoch-keyed result cache --- *)

let test_rcache () =
  let c = Rcache.create ~cap:2 () in
  check "miss on empty" true (Rcache.find c ~epoch:0 "a" = None);
  Rcache.add c ~epoch:0 "a" 1;
  check "hit after add" true (Rcache.find c ~epoch:0 "a" = Some 1);
  checki "one hit" 1 (Rcache.hits c);
  checki "one miss" 1 (Rcache.misses c);
  (* A present key is not overwritten (same epoch implies the same
     value by determinism). *)
  Rcache.add c ~epoch:0 "a" 99;
  check "no overwrite" true (Rcache.find c ~epoch:0 "a" = Some 1);
  (* Epoch advance flushes everything before the operation answers. *)
  check "epoch change misses" true (Rcache.find c ~epoch:1 "a" = None);
  checki "flush counted" 1 (Rcache.invalidations c);
  checki "table emptied" 0 (Rcache.size c);
  (* Flush-on-full: a fresh key into a full table clears it first. *)
  Rcache.add c ~epoch:1 "a" 1;
  Rcache.add c ~epoch:1 "b" 2;
  checki "at capacity" 2 (Rcache.size c);
  Rcache.add c ~epoch:1 "c" 3;
  checki "capacity flush kept only the newcomer" 1 (Rcache.size c);
  check "newcomer present" true (Rcache.find c ~epoch:1 "c" = Some 3);
  check "cap < 1 rejected" true
    (match Rcache.create ~cap:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The server keys its cache on the [Wire.request] value: a lookup
   hashes and compares the request in place and builds no key text.
   Measured with the server's instrumented cache and [Range] keys. *)
let test_rcache_find_words () =
  let c = Rcache.create ~obs:(Registry.create ()) () in
  let keys = Array.init 64 (fun i -> Wire.Range { lo = i; hi = i + 7 }) in
  Array.iteri
    (fun i k -> Rcache.add c ~epoch:0 k (Wire.Value (float_of_int i)))
    keys;
  let absent = Array.init 64 (fun i -> Wire.Range { lo = i; hi = i + 8 }) in
  let words_per_find keys =
    let rounds = 50 in
    ignore (Rcache.find c ~epoch:0 keys.(0));
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      Array.iter (fun k -> ignore (Rcache.find c ~epoch:0 k)) keys
    done;
    (Gc.minor_words () -. w0) /. float_of_int (rounds * Array.length keys)
  in
  let hit = words_per_find keys and miss = words_per_find absent in
  check "every probe of a present key hit" true (Rcache.hits c >= 64 * 50);
  (* A hit allocates only the [Some] it returns; a miss nothing. *)
  check (Printf.sprintf "hit allocates %.2f words (<= 2.5)" hit) true
    (hit <= 2.5);
  check (Printf.sprintf "miss allocates %.2f words (<= 0.5)" miss) true
    (miss <= 0.5)

(* --- Rcache against a reference model ---

   Random [find] / [mem] / [add] sequences, each at an epoch that now
   and then advances, against an association list kept under the same
   equality: results, hit and miss counts, invalidations (epoch and
   capacity flushes) and size must agree after every operation. Small
   caps exercise capacity flushes, large ones bucket growth. *)

type 'k op = Find of 'k | Mem of 'k | Add of 'k * int

let gen_ops gen_key =
  QCheck.Gen.(
    pair
      (oneof [ int_range 1 6; int_range 130 300 ])
      (list_size (int_range 1 600)
         (pair
            (frequency [ (19, return 0); (1, return 1) ])
            (frequency
               [
                 (3, map (fun k -> Find k) gen_key);
                 (1, map (fun k -> Mem k) gen_key);
                 (3, map2 (fun k v -> Add (k, v)) gen_key small_nat);
               ]))))

let model_agrees ~create ~equal (cap, ops) =
  let c = create cap in
  let entries = ref [] and epoch = ref 0 in
  let hits = ref 0 and misses = ref 0 and flushes = ref 0 in
  let flush () =
    entries := [];
    incr flushes
  in
  let sync e =
    if e <> !epoch then begin
      epoch := e;
      flush ()
    end
  in
  let held k = List.find_opt (fun (k', _) -> equal k' k) !entries in
  let step = ref 0 in
  List.for_all
    (fun (advance, op) ->
      step := !step + advance;
      let e = !step in
      let agrees =
        match op with
        | Find k ->
            let got = Rcache.find c ~epoch:e k in
            sync e;
            let want = Option.map snd (held k) in
            (match want with Some _ -> incr hits | None -> incr misses);
            got = want
        | Mem k -> Rcache.mem c ~epoch:e k = (e = !epoch && held k <> None)
        | Add (k, v) ->
            Rcache.add c ~epoch:e k v;
            sync e;
            if held k = None then begin
              if List.length !entries >= cap then flush ();
              entries := (k, v) :: !entries
            end;
            true
      in
      agrees
      && Rcache.hits c = !hits
      && Rcache.misses c = !misses
      && Rcache.invalidations c = !flushes
      && Rcache.size c = List.length !entries)
    ops

let model_test ~name ~create ~equal gen_key =
  QCheck.Test.make ~name ~count:150 (QCheck.make (gen_ops gen_key))
    (model_agrees ~create ~equal)

(* The server's keys, RANGE and QUANTILE (signed zeros and NaN among
   them), plus structurally keyed POINTs, under [Wire.read_hash] /
   [Wire.read_equal]. *)
let prop_rcache_request_keys =
  model_test ~name:"Rcache = model (server request keys)"
    ~create:(fun cap ->
      Rcache.create ~cap ~hash:Wire.read_hash ~equal:Wire.read_equal ())
    ~equal:Wire.read_equal
    QCheck.Gen.(
      frequency
        [
          ( 3,
            map2 (fun lo hi -> Wire.Range { lo; hi }) (int_bound 20)
              (int_bound 20) );
          ( 2,
            map
              (fun q -> Wire.Quantile q)
              (oneofl [ 0.; -0.; 0.25; 0.5; 1.; Float.nan; -.Float.nan ]) );
          (1, map (fun i -> Wire.Point i) (int_bound 8));
        ])

(* The router memo's keys: packed ints as their own hash. *)
let prop_rcache_memo_keys =
  model_test ~name:"Rcache = model (memo int keys)"
    ~create:(fun cap -> Rcache.create ~cap ~hash:Fun.id ~equal:Int.equal ())
    ~equal:Int.equal
    QCheck.Gen.(
      oneof [ int_bound 400; map (fun k -> k * 0x100001) (int_bound 400); int ])

(* Default [Hashtbl.hash] and [( = )] over strings. *)
let prop_rcache_string_keys =
  model_test ~name:"Rcache = model (default-hashed strings)"
    ~create:(fun cap -> Rcache.create ~cap ())
    ~equal:String.equal
    QCheck.Gen.(map (fun i -> "k" ^ string_of_int i) (int_bound 300))

(* QUANTILE 0.0 and -0.0 are one key of the server's cache. *)
let test_rcache_signed_zero () =
  let c = Rcache.create ~hash:Wire.read_hash ~equal:Wire.read_equal () in
  Rcache.add c ~epoch:0 (Wire.Quantile 0.) (Wire.Quantile_pos 3);
  check "-0.0 hits the 0.0 entry" true
    (Rcache.find c ~epoch:0 (Wire.Quantile (-0.)) = Some (Wire.Quantile_pos 3));
  Rcache.add c ~epoch:0 (Wire.Quantile (-0.)) (Wire.Quantile_pos 4);
  checki "one entry" 1 (Rcache.size c)

(* Distinct (shard, lo, hi) never share a memo key: stub shards answer
   each sub-range with a value naming it, and every RANGE over a
   16-cell, 4-shard domain, asked twice, is answered with the sum of
   its own sub-ranges' names — the second time wholly from the memo. *)
let test_memo_keys_distinct () =
  let n = 16 in
  let ranges = must_s (Shard.split ~n ~shards:4) in
  let name k lo hi = float_of_int ((k * 10_000) + (lo * 100) + hi) in
  let rpc k = function
    | Wire.Range { lo; hi } -> Ok [ Wire.Value (name k lo hi) ]
    | _ -> Ok [ Wire.Error { code = Wire.Internal; message = "stub" } ]
  in
  let r =
    must_s (Shard.router ~n ~ranges (Array.init 4 (fun k -> rpc k)))
  in
  Shard.set_cache r ~cap:4096;
  let want lo hi =
    List.fold_left
      (fun (acc, k) { Shard.lo = slo; hi = shi } ->
        let acc =
          if shi >= lo && slo <= hi then
            acc +. name k (max lo slo - slo) (min hi shi - slo)
          else acc
        in
        (acc, k + 1))
      (0., 0) ranges
    |> fst
  in
  let sweep () =
    for lo = 0 to n - 1 do
      for hi = lo to n - 1 do
        match Shard.eval r (Wire.Range { lo; hi }) with
        | Wire.Value v when v = want lo hi -> ()
        | reply ->
            Alcotest.failf "RANGE %d %d answered %s" lo hi
              (Wire.describe_reply reply)
      done
    done
  in
  sweep ();
  (* Each shard's 4 cells hold 10 sub-ranges. *)
  checki "one miss per distinct sub-range" 40 (Shard.memo_misses r);
  let hits = Shard.memo_hits r in
  sweep ();
  checki "second sweep never misses" 40 (Shard.memo_misses r);
  check "second sweep hit" true (Shard.memo_hits r > hits);
  let huge =
    must_s
      (Shard.router ~n:(1 lsl 31)
         ~ranges:[ { Shard.lo = 0; hi = (1 lsl 31) - 1 } ]
         [| rpc 0 |])
  in
  check "a domain of 2^31 cells has no memo key" true
    (match Shard.set_cache huge ~cap:1 with
    | exception Invalid_argument _ -> true
    | () -> false)

(* --- the sharded router's sub-range memo --- *)

(* In-process stub shards: each answers RANGE from an exact synopsis
   over its slice and counts every RPC it serves, so the test can see
   exactly which probes the memo absorbed. *)
let stub_shards ~data ~ranges =
  List.map
    (fun { Shard.lo; hi } ->
      let slice = Array.sub data lo (hi - lo + 1) in
      let served =
        must
          (Ladder.serve ~epsilon:0.25 ~top:`Minmax ~data:slice
             ~budget:(Array.length slice) Metrics.Abs)
      in
      let syn = served.Ladder.synopsis in
      let calls = ref 0 in
      let rpc req =
        incr calls;
        match req with
        | Wire.Range { lo; hi } -> (
            match Range_query.range_sum syn ~lo ~hi with
            | v -> Ok [ Wire.Value v ]
            | exception Invalid_argument _ ->
                Ok
                  [
                    Wire.Error
                      { code = Wire.Out_of_range; message = "bad sub-range" };
                  ])
        | Wire.Point i -> Ok [ Wire.Value (Synopsis.reconstruct_point syn i) ]
        | Wire.Retier _ -> Ok [ Wire.Pong ]
        | _ ->
            Ok [ Wire.Error { code = Wire.Internal; message = "stub" } ]
      in
      (rpc, calls))
    ranges

let test_shard_memo_quantiles () =
  let n = 64 in
  let data = exact_data n in
  let full =
    must
      (Ladder.serve ~epsilon:0.25 ~top:`Minmax ~data ~budget:n Metrics.Abs)
  in
  let full_syn = full.Ladder.synopsis in
  let ranges = must_s (Shard.split ~n ~shards:4) in
  (* Probe grid plus the exact cumulative fractions at every shard
     boundary, so bisections terminate exactly on boundary cells. *)
  let total = Range_query.range_sum full_syn ~lo:0 ~hi:(n - 1) in
  let boundary_qs =
    List.concat_map
      (fun { Shard.lo; hi } ->
        [
          Range_query.range_sum full_syn ~lo:0 ~hi /. total;
          (if lo > 0 then Range_query.range_sum full_syn ~lo:0 ~hi:(lo - 1) /. total
           else 0.);
        ])
      ranges
  in
  let qs = [ 0.; 0.1; 0.37; 0.5; 0.73; 0.9; 1. ] @ boundary_qs in
  let run ~memo =
    let stubs = stub_shards ~data ~ranges in
    let rpcs = Array.of_list (List.map fst stubs) in
    let router = must_s (Shard.router ~n ~ranges rpcs) in
    if memo then Shard.set_cache router ~cap:4096;
    let calls () = List.fold_left (fun acc (_, c) -> acc + !c) 0 stubs in
    let replies = List.map (fun q -> Shard.eval router (Wire.Quantile q)) qs in
    (router, replies, calls)
  in
  let _, plain_replies, plain_calls = run ~memo:false in
  let router, memo_replies, memo_calls = run ~memo:true in
  let plain_calls = plain_calls () in
  (* Byte-identical replies, and every one agrees with the unsharded
     bisection. *)
  check "memo on/off replies identical" true (plain_replies = memo_replies);
  List.iter2
    (fun q reply ->
      match reply with
      | Wire.Quantile_pos pos ->
          checki
            (Printf.sprintf "quantile %g matches unsharded" q)
            (Quantiles.estimate full_syn ~q)
            pos
      | r -> Alcotest.fail ("quantile: " ^ Wire.describe_reply r))
    qs plain_replies;
  (* A bisection's prefix probes repeat across quantiles: the memo
     must absorb a large share of the sub-range RPCs. *)
  check
    (Printf.sprintf "memo cut RPCs (%d -> %d)" plain_calls (memo_calls ()))
    true
    (memo_calls () < plain_calls / 2);
  checki "memo hits + misses = plain probe count" plain_calls
    (Shard.memo_hits router + Shard.memo_misses router);
  check "memo hits observed" true (Shard.memo_hits router > 0);
  (* Re-asking an already-answered quantile is free while shard state
     stands still... *)
  let before = memo_calls () in
  ignore (Shard.eval router (Wire.Quantile 0.5));
  checki "repeat quantile fully absorbed" before (memo_calls ());
  (* ...but a RETIER broadcast can change every shard synopsis: the
     memo must flush, so the same quantile goes back to the shards. *)
  Shard.retier router 1;
  let after_retier = memo_calls () in
  (match Shard.eval router (Wire.Quantile 0.5) with
  | Wire.Quantile_pos _ -> ()
  | r -> Alcotest.fail ("post-retier quantile: " ^ Wire.describe_reply r));
  check "retier flushed the memo" true (memo_calls () > after_retier)

(* --- end-to-end: cache on/off transcript byte-identity --- *)

(* Run a server over [cfg] on a [jobs]-domain pool, hand [f] a client,
   shut the server down; returns [f]'s result and the metrics table. *)
let serve_against ~cfg ~jobs f =
  let pool = Pool.create ~domains:jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let server = Server.create ~pool cfg in
  let runner = Domain.spawn (fun () -> Server.run server) in
  let client =
    match Client.connect ~wait_ms:5000. cfg.Server.path with
    | Ok c -> c
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  let result =
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    let result = f client in
    ignore (Client.request_one client Wire.Shutdown);
    result
  in
  (match Domain.join runner with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Validate.to_string e));
  (result, Registry.render_table (Server.registry server))

let loadgen_against ~cfg ~jobs ~hot ~mix ~seed ~requests ~batch ~n =
  let buf = Buffer.create 4096 in
  let result, table =
    serve_against ~cfg ~jobs (fun client ->
        Loadgen.run ~hot ~rpc:(Client.request client) ~seed ~requests ~batch
          ~n ~mix ~out:(Buffer.add_string buf) ())
  in
  (Buffer.contents buf, must result, table)

(* Pull a counter's value out of a rendered metrics table: rows read
   [counter    NAME    VALUE unit]. *)
let counter_value table name =
  match
    List.find_opt
      (fun l -> contains l name)
      (String.split_on_char '\n' table)
  with
  | None -> Alcotest.fail (name ^ " not in table")
  | Some line -> (
      match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
      | _kind :: _name :: value :: _ -> int_of_string value
      | _ -> Alcotest.fail ("unparseable metrics row: " ^ line))

let test_server_cache_transcripts () =
  let n = 64 in
  let mix = must_s (Loadgen.mix_of_string "ranges=6,quantiles=2") in
  let run ~cache ~jobs =
    let cfg =
      Server.config ~budget:8 ~queue_bound:16 ~cache ~path:(sock_path ())
        (exact_data n)
    in
    loadgen_against ~cfg ~jobs ~hot:6 ~mix ~seed:29 ~requests:48 ~batch:4 ~n
  in
  let t_off, s_off, table_off = run ~cache:false ~jobs:1 in
  let t_on, s_on, table_on = run ~cache:true ~jobs:1 in
  let _t_on4, s_on4, _ = run ~cache:true ~jobs:4 in
  check "cache-on transcript byte-identical to cache-off" true
    (String.equal t_off t_on);
  checks "crc identical" s_off.Loadgen.transcript_crc
    s_on.Loadgen.transcript_crc;
  checks "crc identical across jobs" s_on.Loadgen.transcript_crc
    s_on4.Loadgen.transcript_crc;
  (* The hot set actually repeated queries, and the cache saw them. *)
  check "cache hits counted" true
    (counter_value table_on "serve.cache.hits" > 0);
  check "cache-off table has no cache family" false
    (contains table_off "serve.cache.hits")

(* The same loadgen schedule through a [shards]-shard scatter-gather
   front-end over static shard servers; returns the transcript, the
   summary and the front-end's own metrics table. *)
let sharded_against ~cache ~shards ~hot ~mix ~seed ~requests ~batch data =
  let n = Array.length data in
  let ranges = must_s (Shard.split ~n ~shards) in
  let shard_paths = List.map (fun _ -> sock_path ()) ranges in
  let runners =
    List.map2
      (fun path { Shard.lo; hi } ->
        let slice = Array.sub data lo (hi - lo + 1) in
        let server =
          Server.create (Server.config ~budget:(hi - lo + 1) ~path slice)
        in
        Domain.spawn (fun () -> Server.run server))
      shard_paths ranges
  in
  let clients =
    List.map
      (fun p ->
        match Client.connect ~wait_ms:5000. p with
        | Ok c -> c
        | Error e -> Alcotest.fail (Validate.to_string e))
      shard_paths
  in
  let rpcs =
    Array.of_list (List.map (fun c req -> Client.request c req) clients)
  in
  let router = must_s (Shard.router ~n ~ranges rpcs) in
  let cfg =
    Server.config ~budget:n ~queue_bound:16 ~cache ~path:(sock_path ()) data
  in
  let pool = Pool.create ~domains:1 () in
  let server = Server.create ~pool ~router cfg in
  let front_runner = Domain.spawn (fun () -> Server.run server) in
  let buf = Buffer.create 4096 in
  let summary =
    Fun.protect
      ~finally:(fun () ->
        Shard.shutdown router;
        List.iter Client.close clients;
        List.iter
          (fun r -> match Domain.join r with Ok () | Error _ -> ())
          runners;
        Pool.shutdown pool)
    @@ fun () ->
    let client =
      match Client.connect ~wait_ms:5000. cfg.Server.path with
      | Ok c -> c
      | Error e -> Alcotest.fail (Validate.to_string e)
    in
    Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
    let result =
      Loadgen.run ~hot ~rpc:(Client.request client) ~seed ~requests ~batch ~n
        ~mix ~out:(Buffer.add_string buf) ()
    in
    ignore (Client.request_one client Wire.Shutdown);
    must result
  in
  (match Domain.join front_runner with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Validate.to_string e));
  (Buffer.contents buf, summary, Registry.render_table (Server.registry server))

let test_server_cache_sharded () =
  (* The sharded front-end with --cache: transcripts byte-identical to
     the uncached sharded run, across shard counts. *)
  let mix = must_s (Loadgen.mix_of_string "ranges=5,quantiles=3") in
  let run ~cache ~shards =
    sharded_against ~cache ~shards ~hot:5 ~mix ~seed:31 ~requests:32 ~batch:4
      (exact_data 64)
  in
  let t_off, _, _ = run ~cache:false ~shards:2 in
  let t_on, s_on, _ = run ~cache:true ~shards:2 in
  let _t_on4, s_on4, _ = run ~cache:true ~shards:4 in
  check "sharded cache-on transcript identical to cache-off" true
    (String.equal t_off t_on);
  checks "identical across shard counts" s_on.Loadgen.transcript_crc
    s_on4.Loadgen.transcript_crc

(* One cache rule on every backend: a hot, batched schedule (keys
   repeat within a round) reads the same serve.cache.* counters on an
   unsharded server and on a 2-shard front-end. *)
let test_cache_counters_backend_parity () =
  let n = 64 in
  let data = exact_data n in
  let mix = must_s (Loadgen.mix_of_string "ranges=6,quantiles=2") in
  let cache_rows table =
    List.filter
      (fun l -> contains l "serve.cache")
      (String.split_on_char '\n' table)
  in
  let t_un, _, table_un =
    loadgen_against
      ~cfg:(Server.config ~budget:n ~queue_bound:16 ~cache:true
              ~path:(sock_path ()) data)
      ~jobs:1 ~hot:6 ~mix ~seed:29 ~requests:48 ~batch:4 ~n
  in
  let t_sh, _, table_sh =
    sharded_against ~cache:true ~shards:2 ~hot:6 ~mix ~seed:29 ~requests:48
      ~batch:4 data
  in
  check "transcripts identical" true (String.equal t_un t_sh);
  Alcotest.(check (list string))
    "serve.cache.* identical" (cache_rows table_un) (cache_rows table_sh);
  checki "hits" 40 (counter_value table_sh "serve.cache.hits");
  checki "misses" 8 (counter_value table_sh "serve.cache.misses")

(* A BATCH interleaving duplicate RANGEs with POINTs and QUANTILEs
   gets, entry for entry, the replies its requests get one at a time,
   at pool sizes 1 and 4 with the cache off and on. *)
let test_batch_equals_per_request () =
  let r1 = Wire.Range { lo = 3; hi = 40 }
  and r2 = Wire.Range { lo = 0; hi = 63 } in
  let entries =
    [
      r1; Wire.Point 5; r1; Wire.Quantile 0.5; r2; r1; Wire.Quantile 0.5;
      Wire.Point 5; Wire.Range { lo = 9; hi = 2 }; r2; Wire.Quantile 0.25;
      Wire.Range { lo = 9; hi = 2 };
    ]
  in
  let serve ~cache ~jobs f =
    fst
      (serve_against ~jobs
         ~cfg:
           (Server.config ~budget:8 ~cache ~path:(sock_path ())
              (exact_data 64))
         f)
  in
  let describe = function
    | Ok replies -> List.map Wire.describe_reply replies
    | Error e -> Alcotest.fail (Validate.to_string e)
  in
  let one_at_a_time =
    serve ~cache:false ~jobs:1 (fun client ->
        List.concat_map (fun r -> describe (Client.request client r)) entries)
  in
  List.iter
    (fun (jobs, cache) ->
      Alcotest.(check (list string))
        (Printf.sprintf "batched = one at a time (pool %d, cache %b)" jobs
           cache)
        one_at_a_time
        (serve ~cache ~jobs (fun client ->
             describe (Client.request client (Wire.Batch entries)))))
    [ (1, false); (1, true); (4, false); (4, true) ]

(* --- end-to-end: pre-cut tiers --- *)

let test_server_tiers () =
  let n = 64 in
  let mix = must_s (Loadgen.mix_of_string "points=2,ranges=5,quantiles=3") in
  let run ~jobs =
    let cfg =
      Server.config ~budget:8 ~queue_bound:3 ~tiers:3 ~adapt_every:4
        ~path:(sock_path ()) (exact_data n)
    in
    loadgen_against ~cfg ~jobs ~hot:0 ~mix ~seed:17 ~requests:48 ~batch:8 ~n
  in
  let t1, s1, table = run ~jobs:1 in
  let t3, s3, _ = run ~jobs:3 in
  (* Deterministic across pool sizes, like every serving mode. *)
  check "tiers transcripts byte-identical across jobs" true
    (String.equal t1 t3);
  checks "tiers crc identical" s1.Loadgen.transcript_crc
    s3.Loadgen.transcript_crc;
  (* The batch of 8 against a bound of 3 sheds: overload replies must
     advertise a pre-cut tier. *)
  check "overloads happened" true (s1.Loadgen.overloads > 0);
  check "overload advertises a pre-cut tier" true (contains t1 "precut(b=");
  check "adaptive.observed exported" true (contains table "adaptive.observed")

let () =
  Alcotest.run "adaptive"
    [
      ( "workload",
        [
          Alcotest.test_case "mix strings" `Quick test_mix_strings;
          Alcotest.test_case "profiler" `Quick test_profiler;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "plan" `Quick test_tiers_plan;
          Alcotest.test_case "build/select" `Quick test_tiers_build;
        ] );
      ( "cache",
        [
          Alcotest.test_case "rcache" `Quick test_rcache;
          Alcotest.test_case "rcache find words" `Quick test_rcache_find_words;
          Alcotest.test_case "rcache signed zero" `Quick
            test_rcache_signed_zero;
          Alcotest.test_case "memo keys distinct" `Quick
            test_memo_keys_distinct;
          Alcotest.test_case "shard memo quantiles" `Quick
            test_shard_memo_quantiles;
        ] );
      ( "rcache model",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 33 |]))
          [
            prop_rcache_request_keys;
            prop_rcache_memo_keys;
            prop_rcache_string_keys;
          ] );
      ( "serving",
        [
          Alcotest.test_case "cache transcripts" `Quick
            test_server_cache_transcripts;
          Alcotest.test_case "cache sharded" `Quick test_server_cache_sharded;
          Alcotest.test_case "cache counters on every backend" `Quick
            test_cache_counters_backend_parity;
          Alcotest.test_case "batch = per request" `Quick
            test_batch_equals_per_request;
          Alcotest.test_case "tiers" `Quick test_server_tiers;
        ] );
    ]
