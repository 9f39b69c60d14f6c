(* Per-layer replay: the recorded frames of a traced server, run again
   through each layer's public function with a span (timing pass) or a
   minor-word count (allocation pass) around every call. Each replayed
   result must equal the reply the server sent, byte for byte on the
   wire, or the replay fails.

   The replay mirrors the serving round the way `Server` composes it:
   writes first (Supervisor.ingest, then Incremental.refresh or the
   cadenced full_cut), then the result-cache pre-pass keyed on the
   canonical request text, one Fusion plan for the round's misses, and
   evaluation (or Shard.eval through in-process shard backends). *)

module Wire = Wavesyn_server.Wire
module Admit = Wavesyn_server.Admit
module Shard = Wavesyn_server.Shard
module Rcache = Wavesyn_adaptive.Rcache
module Fusion = Wavesyn_adaptive.Fusion
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Ladder = Wavesyn_robust.Ladder
module Supervisor = Wavesyn_robust.Supervisor
module Incremental = Wavesyn_robust.Incremental
module Journal = Wavesyn_robust.Journal
module Minmax_dp = Wavesyn_core.Minmax_dp
module Trace = Wavesyn_obs.Trace

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

(* What surrounds one layer call: a span, or a word count. *)
type probe = { run : 'a. string -> (unit -> 'a) -> 'a }

let span_probe sink = { run = (fun name f -> Trace.with_span sink name f) }

let words_probe (tbl : (string, float * int) Hashtbl.t) =
  {
    run =
      (fun name f ->
        let w0 = Gc.minor_words () in
        let r = f () in
        let w = Gc.minor_words () -. w0 in
        let s, c = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl name) in
        Hashtbl.replace tbl name (s +. w, c + 1);
        r);
  }

let cut (w : Spec.t) data =
  match Ladder.serve ~epsilon:0.25 ~data ~budget:w.budget Metrics.Abs with
  | Ok s -> s.Ladder.synopsis
  | Error _ -> mismatch "ladder failed"

(* One read on a synopsis, as Server.eval_one answers it. *)
let eval probe syn plan = function
  | Wire.Point i ->
      probe.run "eval.point" (fun () -> Wire.Value (Synopsis.reconstruct_point syn i))
  | Wire.Range { lo; hi } ->
      probe.run "eval.range" (fun () -> Wire.Value (Fusion.range_sum (Lazy.force plan) ~lo ~hi))
  | Wire.Quantile q ->
      probe.run "eval.quantile" (fun () ->
          match Fusion.quantile (Lazy.force plan) ~q with
          | p -> Wire.Quantile_pos p
          | exception Invalid_argument message ->
              Wire.Error { code = Wire.Unanswerable; message })
  | _ -> mismatch "not a read"

let needs_plan = function Wire.Range _ | Wire.Quantile _ -> true | _ -> false

let planned probe syn reqs =
  if List.exists needs_plan reqs then
    Lazy.from_val (probe.run "fusion.plan" (fun () -> Fusion.plan syn))
  else lazy (mismatch "no plan")

type backend =
  | Static of Synopsis.t
  | Sharded of Shard.t * int ref
  | Live of { sup : Supervisor.t; inc : Incremental.t; dir : string }

(* A shard backend answers each RPC as its own serving round. *)
let shard_router probe (w : Spec.t) data =
  let ranges = Result.get_ok (Shard.split ~n:w.n ~shards:w.shards) in
  let rpcs = ref 0 in
  let backends =
    Array.of_list
      (List.map
         (fun { Shard.lo; hi } ->
           let syn = cut w (Array.sub data lo (hi - lo + 1)) in
           fun req ->
             incr rpcs;
             Ok [ eval probe syn (planned probe syn [ req ]) req ])
         ranges)
  in
  let r = Result.get_ok (Shard.router ~n:w.n ~ranges backends) in
  Shard.set_cache r ~cap:4096;
  Sharded (r, rpcs)

let backend probe (w : Spec.t) ~dir =
  match w.kind with
  | Spec.Static -> Static (cut w (Spec.dataset w))
  | Spec.Sharded -> shard_router probe w (Spec.dataset w)
  | Spec.Live ->
      Spec.prep_store w ~dir;
      let scfg =
        {
          (Result.get_ok (Supervisor.recover ~dir)).Supervisor.r_config with
          Supervisor.checkpoint_every = 64;
          recut_every = max_int;
          sync = true;
        }
      in
      let sup = Result.get_ok (Supervisor.open_store scfg) in
      let inc =
        Incremental.create ~full_every:32 ~budget:w.budget ~metric:Metrics.Abs
          ~epsilon:0.25 (Supervisor.stream sup)
      in
      Live { sup; inc; dir }

let same what got want =
  if Wire.encode_reply got <> Wire.encode_reply want then
    mismatch "%s: replayed %s, server sent %s" what (Wire.describe_reply got)
      (Wire.describe_reply want)

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

type replayed = { journal_bytes : int list; frames : int }

(* Replay [frames] (requests, the server's replies) once. *)
let pass probe (w : Spec.t) ~dir frames =
  let be = backend probe w ~dir in
  let admit = Admit.create ~bound:64 () in
  let cache = Rcache.create () in
  let epoch = ref 0 in
  let bytes = ref [] in
  Array.iter
    (fun ((reqs : Wire.request array), (replies : Wire.reply list)) ->
      let replies = Array.of_list replies in
      if Array.length replies <> Array.length reqs then mismatch "reply count";
      let frame = Spec.frame_request reqs in
      let encoded =
        probe.run "wire.encode" (fun () ->
            (Wire.encode_request frame, Array.map Wire.encode_reply replies))
      in
      let decoded =
        probe.run "wire.decode" (fun () ->
            let dec s =
              match Wire.decode (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s) with
              | `Frame (f, _) -> f
              | `Incomplete | `Corrupt _ -> mismatch "wire decode"
            in
            (dec (fst encoded), Array.map dec (snd encoded)))
      in
      if fst decoded <> Wire.Req frame then mismatch "request round trip";
      Array.iteri
        (fun i d -> if d <> Wire.Rep replies.(i) then mismatch "reply round trip")
        (snd decoded);
      let reads = List.filter Spec.is_read (Array.to_list reqs) in
      if reads <> [] then
        probe.run "admit.cycle" (fun () ->
            List.iteri (fun i _ -> ignore (Admit.offer admit i)) reads;
            ignore (Admit.take_batch admit));
      (* Writes apply before the round's reads, in arrival order. *)
      (match be with
      | Live { sup; inc; dir } ->
          let wrote = ref false in
          Array.iteri
            (fun k req ->
              match req with
              | Wire.Update { i; delta } ->
                  let journal = Journal.path ~dir in
                  let before = file_size journal in
                  let seq =
                    match probe.run "supervisor.ingest" (fun () -> Supervisor.ingest sup ~i ~delta) with
                    | Ok seq -> seq
                    | Error _ -> mismatch "ingest failed"
                  in
                  let after = file_size journal in
                  if after > before then bytes := (after - before) :: !bytes;
                  same "UPDATE" (Wire.Acked { seq }) replies.(k);
                  Incremental.note_update inc ~i ~delta;
                  wrote := true
              | _ -> ())
            reqs;
          if !wrote then begin
            let stream = Supervisor.stream sup in
            if Incremental.due_full inc then
              probe.run "incremental.full_cut" (fun () ->
                  ignore (Incremental.full_cut ~top:`Minmax inc stream))
            else probe.run "incremental.refresh" (fun () -> Incremental.refresh inc stream);
            incr epoch
          end
      | Static _ | Sharded _ -> ());
      (* Cache pre-pass in arrival order; misses are evaluated. *)
      let key r = Wire.describe_request r in
      let pending =
        List.filter_map
          (fun k ->
            let req = reqs.(k) in
            if not (Spec.is_read req) then None
            else if needs_plan req then
              match probe.run "rcache.find" (fun () -> Rcache.find cache ~epoch:!epoch (key req)) with
              | Some hit ->
                  same "cache hit" hit replies.(k);
                  None
              | None -> Some k
            else Some k)
          (List.init (Array.length reqs) Fun.id)
      in
      let answer =
        match be with
        | Static syn ->
            let plan = planned probe syn (List.map (fun k -> reqs.(k)) pending) in
            eval probe syn plan
        | Live { inc; _ } ->
            let syn = Incremental.synopsis inc in
            let plan = planned probe syn (List.map (fun k -> reqs.(k)) pending) in
            eval probe syn plan
        | Sharded (r, _) -> fun req -> probe.run "shard.eval" (fun () -> Shard.eval r req)
      in
      List.iter
        (fun k ->
          let got = answer reqs.(k) in
          same (Wire.describe_request reqs.(k)) got replies.(k);
          match got with
          | (Wire.Value _ | Wire.Quantile_pos _) when needs_plan reqs.(k) ->
              Rcache.add cache ~epoch:!epoch (key reqs.(k)) got
          | _ -> ())
        pending)
    frames;
  let counts =
    match be with
    | Sharded (r, rpcs) -> Some (!rpcs, Shard.memo_hits r, Shard.memo_misses r)
    | _ -> None
  in
  (match be with Live { sup; _ } -> Supervisor.close sup | _ -> ());
  ({ journal_bytes = !bytes; frames = Array.length frames }, counts)

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Minmax_dp.solve on each dataset the server cuts, [reps] times:
   (median ms, minor words per solve, major MiB per solve, optimum). *)
let solves (w : Spec.t) ~reps =
  let data = Spec.dataset w in
  let parts =
    match w.kind with
    | Spec.Sharded ->
        List.map
          (fun { Shard.lo; hi } -> Array.sub data lo (hi - lo + 1))
          (Result.get_ok (Shard.split ~n:w.n ~shards:w.shards))
    | Spec.Static | Spec.Live -> [ data ]
  in
  let times = ref [] and minor = ref 0. and major = ref 0. and opt = ref 0. in
  for _ = 1 to reps do
    List.iter
      (fun data ->
        let s0 = Gc.quick_stat () in
        let t0 = Proc.now_s () in
        let r = Minmax_dp.solve ~data ~budget:w.budget Metrics.Abs in
        let t1 = Proc.now_s () in
        let s1 = Gc.quick_stat () in
        times := ((t1 -. t0) *. 1e3) :: !times;
        minor := !minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
        major := !major +. (s1.Gc.major_words -. s0.Gc.major_words);
        opt := Float.max !opt r.Minmax_dp.max_err)
      parts
  done;
  let k = float_of_int (reps * List.length parts) in
  (median !times, !minor /. k, !major *. 8. /. 1048576. /. k, !opt)

(* The per-layer metrics a replay yields, by name. *)
let metrics (w : Spec.t) ~dir frames =
  let sink = Trace.sink ~capacity:(1 lsl 20) () in
  let timing, counts = pass (span_probe sink) w ~dir:(dir ^ ".t") frames in
  let words = Hashtbl.create 16 in
  ignore (pass (words_probe words) w ~dir:(dir ^ ".w") frames);
  let spans name =
    List.filter_map
      (fun (s : Trace.span) -> if s.name = name then Some s.duration_ms else None)
      (Trace.spans sink)
  in
  let med name scale = median (spans name) *. scale in
  let wsum names =
    List.fold_left
      (fun (s, c) n ->
        let s', c' = Option.value ~default:(0., 0) (Hashtbl.find_opt words n) in
        (s +. s', c + c'))
      (0., 0) names
  in
  let per (s, c) = if c = 0 then 0. else s /. float_of_int c in
  let evals = [ "eval.point"; "eval.range"; "eval.quantile" ] in
  let eval_words, _ = wsum ("fusion.plan" :: evals) in
  let _, eval_calls = wsum evals in
  let wire_words, _ = wsum [ "wire.encode"; "wire.decode" ] in
  let shard_rpcs, memo_ratio, memo_lookups =
    match counts with
    | Some (rpcs, hits, misses) ->
        let calls = List.length (spans "shard.eval") in
        ( float_of_int rpcs /. float_of_int (max 1 calls),
          float_of_int hits /. float_of_int (max 1 (hits + misses)),
          float_of_int (hits + misses) )
    | None -> (0., 0., 0.)
  in
  let solve_ms, solve_words, solve_mib, _ = solves w ~reps:3 in
  [
    ("wire.encode_ns_per_frame", med "wire.encode" 1e6);
    ("wire.decode_ns_per_frame", med "wire.decode" 1e6);
    ("wire.words_per_frame", wire_words /. float_of_int timing.frames);
    ("admit.cycle_ns", med "admit.cycle" 1e6);
    ("rcache.find_ns", med "rcache.find" 1e6);
    ("rcache.words_per_find", per (wsum [ "rcache.find" ]));
    ("fusion.plan_us", med "fusion.plan" 1e3);
    ("eval.point_ns", med "eval.point" 1e6);
    ("eval.range_ns", med "eval.range" 1e6);
    ("eval.quantile_ns", med "eval.quantile" 1e6);
    ("eval.words_per_req", if eval_calls = 0 then 0. else eval_words /. float_of_int eval_calls);
    ("shard.rpcs_per_req", shard_rpcs);
    ("shard.eval_us", med "shard.eval" 1e3);
    ("shard.memo_hit_ratio", memo_ratio);
    ("shard.memo_lookups", memo_lookups);
    ("journal.append_us", med "supervisor.ingest" 1e3);
    ("journal.bytes_per_update", median (List.map float_of_int timing.journal_bytes));
    ("incremental.refresh_us", med "incremental.refresh" 1e3);
    ("recut.full_ms", med "incremental.full_cut" 1.);
    ("minmax_dp.solve_ms", solve_ms);
    ("minmax_dp.words_per_solve", solve_words);
    ("minmax_dp.major_mib_per_solve", solve_mib);
  ]
