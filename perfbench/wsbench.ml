(* wsbench: the serving benchmark's load generator (and, as
   `wsbench serve`, the server under test).

   One run: several set-ups of a fresh server process, each timed to
   its first PING and fed the seed-independent warm-up stream (whose
   reply CRC must match across set-ups); a full-domain POINT sweep on
   the first; then a fixed number of equal-work slices, shared out over
   the set-ups, each over one connection with one frame in flight.
   Every timing is calibrated to a reference core speed ({!Calib}).
   Every reply passes the correctness gate ({!Gate}). The traced mode
   runs a plain and a traced server side by side on interleaved
   slices, then replays the traced server's frames layer by layer
   ({!Replay}).

   Usage: wsbench.exe --workload NAME --seed N --seconds S --trace 0|1
            --dir RUNDIR [--tiny] [--cpu C --nproc P] [--cli WAVESYN]

   With --cli, the timed run's servers are the real `wavesyn server`
   started with the workload's flags instead of `wsbench serve`; the
   self-check compares their warm-up CRC with that of {!Serve}. *)

module Wire = Wavesyn_server.Wire
module Crc32 = Wavesyn_util.Crc32
module Mclock = Wavesyn_obs.Mclock
module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis

let units =
  [
    ("setup_s", "s");
    ("rps", "1/s");
    ("read_p50_ms", "ms");
    ("read_p99_ms", "ms");
    ("server_cpu_us_per_req", "us");
    ("max_point_err", "value");
    ("peak_rss_mib", "MiB");
    ("write_p50_ms", "ms");
    ("write_p99_ms", "ms");
    ("wire.encode_ns_per_frame", "ns");
    ("wire.decode_ns_per_frame", "ns");
    ("wire.words_per_frame", "words");
    ("transport.us_per_frame", "us");
    ("admit.cycle_ns", "ns");
    ("admit.shed", "count");
    ("server.round_us_p50", "us");
    ("server.round_us_p99", "us");
    ("server.words_per_req", "words");
    ("rcache.hit_ratio", "ratio");
    ("rcache.lookups", "count");
    ("rcache.find_ns", "ns");
    ("rcache.words_per_find", "words");
    ("rcache.invalidations_per_req", "1/req");
    ("fusion.plan_us", "us");
    ("eval.point_ns", "ns");
    ("eval.range_ns", "ns");
    ("eval.quantile_ns", "ns");
    ("eval.words_per_req", "words");
    ("shard.rpcs_per_req", "1/req");
    ("shard.eval_us", "us");
    ("shard.memo_hit_ratio", "ratio");
    ("shard.memo_lookups", "count");
    ("journal.append_us", "us");
    ("journal.fsyncs_per_update", "1/update");
    ("journal.bytes_per_update", "B");
    ("snapshot.checkpoint_ms", "ms");
    ("snapshot.checkpoints_per_kupdate", "1/kupdate");
    ("incremental.refresh_us", "us");
    ("incremental.dirty_coeffs_per_update", "1/update");
    ("recut.full_per_kupdate", "1/kupdate");
    ("recut.full_ms", "ms");
    ("minmax_dp.solve_ms", "ms");
    ("minmax_dp.words_per_solve", "words");
    ("minmax_dp.major_mib_per_solve", "MiB");
    ("tracing.overhead_frac", "frac");
  ]

let end_to_end =
  [ "setup_s"; "rps"; "read_p50_ms"; "read_p99_ms"; "server_cpu_us_per_req";
    "max_point_err"; "peak_rss_mib" ]

let median = Replay.median

(* Nearest-rank percentile. *)
let pct p = function
  | [||] -> 0.
  | a ->
      let a = Array.copy a in
      Array.sort compare a;
      a.(max 0 (int_of_float (Float.ceil (p *. float_of_int (Array.length a))) - 1))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* A growable unboxed buffer of round-trip times. *)
type fbuf = { mutable a : float array; mutable n : int }

let fbuf () = { a = Array.make 1024 0.; n = 0 }

let push b v =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- v;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n

(* --- one connection's traffic, checked reply by reply --- *)

type session = {
  p : Proc.t;
  gate : Gate.t;
  traced : bool;
      (** a traced server is never sent untimed requests: its replies are
          checked by equality with the plain server's *)
  probe_bound : bool;  (** live-write: read recut.bound after each write *)
  mutable attempted : int;
  mutable failed : int;
  mutable untimed_s : float;  (** wall time of untimed probes *)
  mutable untimed_cpu : float;  (** server CPU ns of untimed probes *)
  mutable crc : int option;  (** CRC of the replies, while one is taken *)
  mutable record : (Wire.request array * Wire.reply list) list option;
  reads : fbuf;  (** read-only frame round trips, ms *)
  writes : fbuf;  (** UPDATE frame round trips, ms *)
}

(* Every session of the run, for the attempted/failed totals and the
   gate's verdict. *)
let sessions : session list ref = ref []

let session p gate ~traced ~probe_bound =
  let s =
    {
      p; gate; traced; probe_bound;
      attempted = 0; failed = 0; untimed_s = 0.; untimed_cpu = 0.; crc = None;
      record = None; reads = fbuf (); writes = fbuf ();
    }
  in
  sessions := s :: !sessions;
  s

(* An untimed request: its wall and server CPU time are excluded from
   the slice it falls in. *)
let untimed s req =
  let t0 = Proc.now_s () and c0 = Proc.cpu_ns s.p in
  let r = req () in
  s.untimed_cpu <- s.untimed_cpu +. (Proc.cpu_ns s.p -. c0);
  s.untimed_s <- s.untimed_s +. (Proc.now_s () -. t0);
  r

let read_bound s =
  s.gate.Gate.bound <- untimed s (fun () -> Proc.stat (Proc.stats s.p) "recut.bound")

let send s reqs =
  let t0 = Mclock.now_ns () in
  let replies = Proc.request s.p (Spec.frame_request reqs) in
  let ms = Int64.to_float (Int64.sub (Mclock.now_ns ()) t0) /. 1e6 in
  if List.length replies <> Array.length reqs then Proc.abort "reply count";
  let wrote = Array.exists (function Wire.Update _ -> true | _ -> false) reqs in
  push (if wrote then s.writes else s.reads) ms;
  s.attempted <- s.attempted + Array.length reqs;
  List.iteri
    (fun i reply ->
      Option.iter (fun c -> s.crc <- Some (Crc32.update c (Wire.encode_reply reply))) s.crc;
      match Gate.check s.gate reqs.(i) reply with
      | `Ok -> ()
      | `Failed -> s.failed <- s.failed + 1
      | `Unanswerable when not s.traced ->
          let n = Array.length s.gate.Gate.exact in
          untimed s (fun () ->
              match Proc.request s.p (Wire.Range { lo = 0; hi = n - 1 }) with
              | [ total ] -> Gate.confirm_unanswerable s.gate total
              | _ -> Proc.abort "RANGE not answered")
      | `Unanswerable -> ())
    replies;
  Option.iter (fun l -> s.record <- Some ((reqs, replies) :: l)) s.record;
  if wrote && s.probe_bound then read_bound s

let run_frames s frames = Array.iter (send s) frames

(* Full-domain POINT sweep (untimed, 32 cells a frame): the largest
   |exact - served|. *)
let sweep s =
  let exact = s.gate.Gate.exact in
  let worst = ref 0. in
  s.record <- Some [];
  for f = 0 to (Array.length exact / 32) - 1 do
    send s (Array.init 32 (fun i -> Wire.Point ((f * 32) + i)))
  done;
  List.iter
    (fun (reqs, replies) ->
      List.iteri
        (fun i -> function
          | Wire.Value v -> (
              match reqs.(i) with
              | Wire.Point c -> worst := Float.max !worst (Float.abs (exact.(c) -. v))
              | _ -> ())
          | _ -> ())
        replies)
    (Option.get s.record);
  s.record <- None;
  !worst

(* --- set-up --- *)

type ctx = {
  spec : Spec.t;
  tiny : bool;
  data : float array;  (** what the server serves at start *)
  optimum : float;  (** MinMax optimum (static workloads) *)
  cli : string option;  (** the `wavesyn` executable to serve with *)
  mutable servers : int;
}

(* `wavesyn server` with the flags {!Serve} mirrors for the workload. *)
let cli_argv exe (w : Spec.t) ~sock ~store =
  let data = [ "--gen"; "zipf"; "-n"; string_of_int w.n; "-B"; string_of_int w.budget;
               "--seed"; string_of_int Spec.data_seed ] in
  [ exe; "server"; "--listen"; sock; "--jobs"; "1"; "--cache" ]
  @
  match w.kind with
  | Spec.Static -> data
  | Spec.Live -> [ "--store"; store ]
  | Spec.Sharded -> "--shards" :: string_of_int w.shards :: data

let start ctx ~traced =
  ctx.servers <- ctx.servers + 1;
  let k = ctx.servers in
  let store = Printf.sprintf "store%d" k in
  if ctx.spec.kind = Spec.Live then Spec.prep_store ctx.spec ~dir:store;
  let sock = Printf.sprintf "s%d.sock" k in
  let argv =
    match ctx.cli with
    | Some exe -> cli_argv exe ctx.spec ~sock ~store
    | None ->
        [ Sys.executable_name; "serve"; ctx.spec.name; (if ctx.tiny then "tiny" else "full");
          sock; (if traced then "1" else "0"); store ]
  in
  let before = Calib.measure () in
  let p, setup = Proc.spawn ~argv ~sock ~log:(Printf.sprintf "server%d.log" k) in
  let setup = setup *. Calib.factor ~before ~after:(Calib.measure ()) in
  (* A traced live server is never probed (its STATS would distort its
     allocation counts): its replies are checked by equality with the
     plain server's instead. *)
  let live = ctx.spec.kind = Spec.Live in
  let probe = live && not traced in
  let gate =
    Gate.create ~data:ctx.data
      ~bound:(if live then Float.infinity else ctx.optimum)
      ~seq:(if live then ctx.spec.n else 0)
  in
  let s = session p gate ~traced ~probe_bound:probe in
  if probe then read_bound s;
  (s, setup)

(* A set-up's warm-up; returns the warm-up reply CRC. *)
let warm s warmup =
  s.crc <- Some 0;
  run_frames s warmup;
  let crc = Option.get s.crc in
  s.crc <- None;
  crc

let reset_latencies s =
  s.reads.n <- 0;
  s.writes.n <- 0

(* --- the measured phase --- *)

(* Every timing of a slice is calibrated ({!Calib}): scaled to the
   reference core speed by the kernel times bracketing the chunk it
   fell in. *)
type slice = {
  rps : float;
  raw_rps : float;  (** uncalibrated *)
  speed : float;  (** wall-weighted calibration factor *)
  cpu_ns : float;
  read_ms : float array;  (** this slice's read-only frame round trips *)
  write_ms : float array;
}

(* A slice is timed in [chunks] chunks, each bracketed by calibrations,
   so that a change of core speed inside a slice is followed. *)
let chunks = 8

(* [b]'s entries from [from] on, as a fresh array, each scaled by the
   factor of the chunk it fell in: [marks] holds each chunk's first
   index and factor, latest first. *)
let calibrated b ~from marks =
  let a = Array.sub b.a from (b.n - from) in
  ignore
    (List.fold_left
       (fun stop (start, k) ->
         for i = start - from to stop - 1 do
           a.(i) <- k *. a.(i)
         done;
         start - from)
       (Array.length a) marks);
  a

(* Each slice starts from a freshly collected load-generator heap,
   so its own collector work is the same in every slice. *)
let slice s frames =
  Gc.full_major ();
  let r0 = s.reads.n and w0 = s.writes.n in
  let n = Array.length frames in
  let wall = ref 0. and raw = ref 0. and cpu = ref 0. in
  let before = ref (Calib.measure ()) and rmarks = ref [] and wmarks = ref [] in
  for c = 0 to chunks - 1 do
    let rc = s.reads.n and wc = s.writes.n in
    let u0 = s.untimed_s and c0 = s.untimed_cpu and cpu0 = Proc.cpu_ns s.p in
    let t0 = Proc.now_s () in
    for f = c * n / chunks to ((c + 1) * n / chunks) - 1 do
      send s frames.(f)
    done;
    let w = Proc.now_s () -. t0 -. (s.untimed_s -. u0) in
    let busy = Proc.cpu_ns s.p -. cpu0 -. (s.untimed_cpu -. c0) in
    let after = Calib.measure () in
    let k = Calib.factor ~before:!before ~after in
    before := after;
    raw := !raw +. w;
    wall := !wall +. (k *. w);
    cpu := !cpu +. (k *. busy);
    rmarks := (rc, k) :: !rmarks;
    wmarks := (wc, k) :: !wmarks
  done;
  let reqs = float_of_int (Array.fold_left (fun a f -> a + Array.length f) 0 frames) in
  {
    rps = reqs /. !wall;
    raw_rps = reqs /. !raw;
    speed = !wall /. !raw;
    cpu_ns = !cpu;
    read_ms = calibrated s.reads ~from:r0 !rmarks;
    write_ms = calibrated s.writes ~from:w0 !wmarks;
  }

(* A latency percentile as the median of its per-slice values, so one
   disturbed slice cannot move it. *)
let slice_pct p field sl = median (List.map (fun x -> pct p (field x)) sl)
let reads x = x.read_ms
let writes x = x.write_ms

let stats_delta s0 s1 name = Proc.stat s1 name -. Proc.stat s0 name

(* Request counts by kind over the measured phase. *)
let tally = Array.make 4 0

let count_kinds frames =
  Array.iter
    (Array.iter (function
      | Wire.Point _ -> tally.(0) <- tally.(0) + 1
      | Wire.Range _ -> tally.(1) <- tally.(1) + 1
      | Wire.Quantile _ -> tally.(2) <- tally.(2) + 1
      | Wire.Update _ -> tally.(3) <- tally.(3) + 1
      | _ -> ()))
    frames;
  frames

(* Counts the self-check compares across seeds, summed over the
   servers' (before, after) STATS pairs. *)
let counts pairs =
  let delta name =
    List.fold_left (fun a (s0, s1) -> a +. stats_delta s0 s1 name) 0. pairs
  in
  [
    ("points", float_of_int tally.(0));
    ("ranges", float_of_int tally.(1));
    ("quantiles", float_of_int tally.(2));
    ("update_requests", float_of_int tally.(3));
    ("updates", delta "update.applied");
    ("full_recuts", delta "recut.full");
    ("checkpoints", delta "store.checkpoint.completed");
    ("cache_fills", delta "serve.cache.misses");
    ("cache_hits", delta "serve.cache.hits");
  ]

(* One set-up of the timed run: the server's set-up time, warm-up CRC,
   its measured slices and its own counters. *)
type served = {
  setup_s : float;
  crc : int;
  max_err : float;  (** POINT sweep, on the first set-up only *)
  slices : slice list;
  hwm_kib : float;
  stats : Proc.stats * Proc.stats;
  unanswerable : int;
}

(* Every set-up serves its share of the slices, so the medians span
   several server processes (and their memory layouts), not one. *)
let timed_run ctx ~warmup ~prime ~next ~slices =
  let per = max 1 (slices / ctx.spec.setups) in
  let runs =
    List.init ctx.spec.setups (fun k ->
        let s, setup_s = start ctx ~traced:false in
        let crc = warm s warmup in
        let max_err = if k = 0 then sweep s else 0. in
        run_frames s prime;
        reset_latencies s;
        let st0 = Proc.stats s.p in
        let slices = List.init per (fun _ -> slice s (count_kinds (next ()))) in
        let hwm_kib = Proc.status_kib s.p "VmHWM" in
        let st1 = Proc.stats s.p in
        Proc.shutdown s.p;
        { setup_s; crc; max_err; slices; hwm_kib; stats = (st0, st1);
          unanswerable = s.gate.Gate.unanswerable })
  in
  let setups = List.map (fun r -> r.setup_s) runs in
  let sl = List.concat_map (fun r -> r.slices) runs in
  let reqs = float_of_int (Array.fold_left ( + ) 0 tally) in
  let metrics =
    [
      ("setup_s", median setups);
      ("rps", median (List.map (fun x -> x.rps) sl));
      ("read_p50_ms", slice_pct 0.5 reads sl);
      ("read_p99_ms", slice_pct 0.99 reads sl);
      ("server_cpu_us_per_req",
        List.fold_left (fun a x -> a +. x.cpu_ns) 0. sl /. reqs /. 1e3);
      ("max_point_err", (List.hd runs).max_err);
      ("peak_rss_mib", median (List.map (fun r -> r.hwm_kib /. 1024.) runs));
    ]
  in
  let notes =
    [
      ("write_p50_ms", slice_pct 0.5 writes sl);
      ("write_p99_ms", slice_pct 0.99 writes sl);
      ("slices", float_of_int (List.length sl));
      ("raw_rps", median (List.map (fun x -> x.raw_rps) sl));
      ("speed_factor", median (List.map (fun x -> x.speed) sl));
      ("optimum", ctx.optimum);
      ("live.quantile_unanswerable",
        float_of_int (List.fold_left (fun a r -> a + r.unanswerable) 0 runs));
    ]
    @ counts (List.map (fun r -> r.stats) runs)
    @ List.mapi (fun i x -> (Printf.sprintf "slice_%02d_rps" i, x.rps)) sl
    @ List.mapi (fun i v -> (Printf.sprintf "setup_%d_s" i, v)) setups
  in
  (metrics, notes, List.map (fun r -> r.crc) runs)

(* Traced mode: a plain server A and a traced server B get the same
   stream; B's replies must equal A's (checked by CRC). Slices alternate
   A, B, so the tracing overhead is measured on interleaved slices. The
   replay covers B's warm-up, priming pass and the head of its first
   slice. *)
let replay_head = 4096

let traced_run ctx ~warmup ~prime ~next ~slices =
  let a, _ = start ctx ~traced:false in
  let b, _ = start ctx ~traced:true in
  b.record <- Some [];
  let crcs = [ warm a warmup; warm b warmup ] in
  let max_err = sweep a in
  a.crc <- Some 0;
  b.crc <- Some 0;
  run_frames a prime;
  run_frames b prime;
  reset_latencies a;
  reset_latencies b;
  let st0 = Proc.stats b.p in
  let d0 = Proc.dump b.p in
  let mark = List.length (Option.get b.record) in
  let recorded = ref [||] in
  let a_slices = ref [] in
  let pairs =
    List.init slices (fun _ ->
        let fr = count_kinds (next ()) in
        let ra = slice a fr in
        let rb = slice b fr in
        a_slices := ra :: !a_slices;
        (match b.record with
        | Some l when List.length l >= mark + min replay_head (Array.length fr) ->
            recorded := Array.of_list (List.rev l);
            b.record <- None
        | _ -> ());
        (ra.rps, rb.rps))
  in
  let d1 = Proc.dump b.p in
  let st1 = Proc.stats b.p in
  Proc.shutdown a.p;
  Proc.shutdown b.p;
  if a.crc <> b.crc then Gate.violate a.gate "plain and traced servers diverged";
  (* B is idle at both dumps, so the phase's spans are exactly those
     with ids past the first dump's count: one server.round per read
     frame. The ring keeps the newest, which pair with the newest
     frames. *)
  let spans =
    Array.of_list
      (List.filter_map
         (fun (id, ms) -> if id > d0.Proc.recorded then Some ms else None)
         d1.Proc.spans)
  in
  let rtts = contents b.reads in
  if d1.Proc.recorded - d0.Proc.recorded <> Array.length rtts then
    Gate.violate a.gate "%d spans for %d read frames"
      (d1.Proc.recorded - d0.Proc.recorded) (Array.length rtts);
  let tail = Array.length rtts - Array.length spans in
  let transport =
    List.init (Array.length spans) (fun i -> (rtts.(tail + i) -. spans.(i)) *. 1e3)
  in
  let d name = stats_delta st0 st1 name in
  let updates = d "update.applied" in
  let breqs = float_of_int (Array.fold_left ( + ) 0 tally) in
  let per_update x = if updates > 0. then x /. updates else 0. in
  let lookups = d "serve.cache.hits" +. d "serve.cache.misses" in
  let replay_frames =
    Array.sub !recorded 0 (min (Array.length !recorded) (mark + replay_head))
  in
  let layers =
    try Replay.metrics ctx.spec ~dir:"replay" replay_frames
    with Replay.Mismatch m ->
      Gate.violate a.gate "replay: %s" m;
      []
  in
  let spans_us = Array.map (fun ms -> ms *. 1e3) spans in
  let metrics =
    [
      ("max_point_err", max_err);
      ("write_p50_ms", slice_pct 0.5 writes !a_slices);
      ("write_p99_ms", slice_pct 0.99 writes !a_slices);
      ("transport.us_per_frame", median transport);
      ("admit.shed", d "server.shed");
      ("server.round_us_p50", pct 0.5 spans_us);
      ("server.round_us_p99", pct 0.99 spans_us);
      ("server.words_per_req", (d1.Proc.minor -. d0.Proc.minor) /. breqs);
      ("rcache.hit_ratio", if lookups > 0. then d "serve.cache.hits" /. lookups else 0.);
      ("rcache.lookups", lookups);
      ("rcache.invalidations_per_req", d "serve.cache.invalidations" /. breqs);
      ("journal.fsyncs_per_update", per_update (d "store.journal.fsyncs"));
      ("snapshot.checkpoint_ms",
        (let c = d "store.checkpoint.ms" in
         let sum = Proc.hist_sum st1 "store.checkpoint.ms" -. Proc.hist_sum st0 "store.checkpoint.ms" in
         if c > 0. then sum /. c else 0.));
      ("snapshot.checkpoints_per_kupdate", per_update (d "store.checkpoint.completed") *. 1e3);
      ("incremental.dirty_coeffs_per_update", per_update (d "recut.dirty_coeffs"));
      ("recut.full_per_kupdate", per_update (d "recut.full") *. 1e3);
      ("tracing.overhead_frac",
        1. -. (median (List.map snd pairs) /. median (List.map fst pairs)));
    ]
    @ layers
  in
  let notes =
    ("live.quantile_unanswerable", float_of_int a.gate.Gate.unanswerable)
    :: counts [ (st0, st1) ]
  in
  (metrics, notes, crcs)

(* --- output --- *)

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let main (spec : Spec.t) ~seed ~seconds ~traced ~tiny ~cli ~cpu ~nproc =
  let name = spec.name in
  (match Spec.fits spec ~seconds with Ok () -> () | Error m -> Proc.abort "%s" m);
  if traced && cli <> None then Proc.abort "--cli serves timed runs only";
  let live = spec.kind = Spec.Live in
  let data =
    if live then begin
      Spec.prep_store spec ~dir:"store0";
      let r = Result.get_ok (Supervisor.recover ~dir:"store0") in
      Stream_synopsis.current_data r.Supervisor.r_stream
    end
    else Spec.dataset spec
  in
  let optimum = if live then 0. else (let _, _, _, o = Replay.solves spec ~reps:1 in o) in
  let ctx = { spec; tiny; data; optimum; cli; servers = 0 } in
  let keys = Spec.keys spec.n in
  let warmup = Spec.warmup spec keys in
  let slices = Spec.slices_for spec ~seconds in
  let slices = if traced then max 2 (slices / 2) else slices in
  let prime, next = Spec.timed spec keys ~seed in
  let metrics, notes, crcs =
    (if traced then traced_run else timed_run) ctx ~warmup ~prime ~next ~slices
  in
  let gate = (List.hd (List.rev !sessions)).gate in
  if List.exists (( <> ) (List.hd crcs)) crcs then
    Gate.violate gate "warm-up CRCs differ across set-ups";
  let max_err = List.assoc_opt "max_point_err" metrics in
  (match max_err with
  | Some e when not live ->
      if Float.abs (e -. optimum) > 1e-9 *. (1. +. optimum) then
        Gate.violate gate "max_point_err %h is not the MinMax optimum %h" e optimum
  | _ -> ());
  let wanted =
    if traced then List.filter (fun (n, _) -> not (List.mem n end_to_end)) units
    else List.filter (fun (n, _) -> List.mem n end_to_end) units
  in
  let metrics =
    List.map
      (fun (n, unit_) ->
        let v = Option.value ~default:0. (List.assoc_opt n metrics) in
        if not (Float.is_finite v) then Gate.violate gate "%s is not finite" n;
        (n, json_obj [ ("value", json_num v); ("unit", Printf.sprintf "%S" unit_) ]))
      wanted
  in
  let attempted = List.fold_left (fun a s -> a + s.attempted) 0 !sessions in
  let failed = List.fold_left (fun a s -> a + s.failed) 0 !sessions in
  let violations =
    List.concat_map (fun s -> List.rev s.gate.Gate.violations) (List.rev !sessions)
  in
  let notes =
    [ ("workload", Printf.sprintf "%S" name); ("seed", string_of_int seed);
      ("cpu", cpu); ("nproc", nproc); ("traced", if traced then "true" else "false");
      ("warmup_crc", Printf.sprintf "%S" (Crc32.to_hex (List.hd crcs)));
      ("max_point_err", json_num (Option.value ~default:0. max_err));
      ("violations",
        "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") violations) ^ "]") ]
    @ List.map (fun (k, v) -> (k, json_num v)) notes
  in
  print_endline (json_obj [ ("notes", json_obj notes) ]);
  let correct = violations = [] in
  print_endline
    (json_obj
       [ ("correct", if correct then "true" else "false");
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", json_obj metrics) ]);
  correct

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve"; name; size; sock; traced; store ] -> (
      match Spec.find ~tiny:(size = "tiny") name with
      | Some w -> Serve.main ~w ~path:sock ~traced:(traced = "1") ~store
      | None -> exit 2)
  | _ :: args ->
      let get key default =
        let rec go = function
          | k :: v :: _ when k = key -> v
          | _ :: rest -> go rest
          | [] -> default
        in
        go args
      in
      let dir = get "--dir" "" in
      if dir = "" then (prerr_endline "wsbench: --dir is required"; exit 2);
      Sys.chdir dir;
      let cleanup () =
        Proc.kill_all ();
        Array.iter (fun f -> rm_rf f) (Sys.readdir ".")
      in
      let tiny = List.mem "--tiny" args and seconds = int_of_string (get "--seconds" "10") in
      let spec =
        match Spec.find ~tiny (get "--workload" "") with
        | Some w -> w
        | None -> prerr_endline "wsbench: unknown workload"; exit 2
      in
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle
           (fun _ ->
             prerr_endline "wsbench: watchdog expired";
             cleanup ();
             exit 3));
      ignore (Unix.alarm (Spec.deadline_s spec ~seconds));
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (match
         main spec ~seed:(int_of_string (get "--seed" "1")) ~seconds
           ~traced:(get "--trace" "0" = "1") ~tiny
           ~cli:(match get "--cli" "" with "" -> None | exe -> Some exe)
           ~cpu:(get "--cpu" "-1") ~nproc:(get "--nproc" "-1")
       with
      | correct ->
          cleanup ();
          if not correct then exit 1
      | exception Proc.Abort m ->
          prerr_endline ("wsbench: " ^ m);
          cleanup ();
          exit 2
      | exception e ->
          prerr_endline ("wsbench: " ^ Printexc.to_string e);
          cleanup ();
          exit 2)
  | [] -> exit 2
