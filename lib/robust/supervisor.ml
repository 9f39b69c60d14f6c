module Sealed = Wavesyn_util.Sealed
module Float_util = Wavesyn_util.Float_util
module Metrics = Wavesyn_synopsis.Metrics
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry
module Trace = Wavesyn_obs.Trace
module Mclock = Wavesyn_obs.Mclock

let log_src = Logs.Src.create "wavesyn.supervisor" ~doc:"Durable serving loop"

module Log = (val Logs.src_log log_src : Logs.LOG)

let bad_shape what reason = Error (Validate.Bad_shape { what; reason })
let bad_option what reason = Error (Validate.Bad_option { what; reason })

(* --- configuration and its on-disk manifest --- *)

type config = {
  dir : string;
  n : int;
  budget : int;
  metric : Metrics.error_metric;
  epsilon : float;
  checkpoint_every : int;
  recut_every : int;
  recut_deadline_ms : float option;
  keep : int;
  sync : bool;
}

let config ?(epsilon = 0.25) ?(checkpoint_every = 64) ?(recut_every = 32)
    ?recut_deadline_ms ?(keep = 3) ?(sync = true) ~dir ~n ~budget metric =
  {
    dir;
    n;
    budget;
    metric;
    epsilon;
    checkpoint_every;
    recut_every;
    recut_deadline_ms;
    keep;
    sync;
  }

let manifest_magic = "wavesyn-store v1"
let manifest_name = "store.cfg"
let manifest_path dir = Filename.concat dir manifest_name

let encode_metric = function
  | Metrics.Abs -> "abs"
  | Metrics.Rel { sanity } -> Printf.sprintf "rel %h" sanity

let decode_metric = function
  | [ "abs" ] -> Some Metrics.Abs
  | [ "rel"; s ] -> (
      match float_of_string_opt s with
      | Some sanity when Float.is_finite sanity && sanity > 0. ->
          Some (Metrics.Rel { sanity })
      | _ -> None)
  | _ -> None

let manifest_text cfg =
  Sealed.block ~trailer:"crc"
    (String.concat "\n"
       [
         manifest_magic;
         Printf.sprintf "n %d" cfg.n;
         Printf.sprintf "budget %d" cfg.budget;
         "metric " ^ encode_metric cfg.metric;
         Printf.sprintf "epsilon %h" cfg.epsilon;
       ]
    ^ "\n")

let decode_manifest ~path text =
  let fail = bad_shape path in
  let field name line =
    match String.split_on_char ' ' line with
    | k :: rest when k = name -> Some rest
    | _ -> None
  in
  let one parse = function [ v ] -> parse v | _ -> None in
  match Sealed.open_block ~trailer:"crc" text with
  | Error reason -> fail reason
  | Ok [ m; n_l; b_l; metric_l; eps_l ] when m = manifest_magic -> (
      match
        ( Option.bind (field "n" n_l) (one int_of_string_opt),
          Option.bind (field "budget" b_l) (one int_of_string_opt),
          Option.bind (field "metric" metric_l) decode_metric,
          Option.bind (field "epsilon" eps_l) (one float_of_string_opt) )
      with
      | Some n, Some budget, Some metric, Some epsilon
        when Float_util.is_pow2 n && budget >= 0 ->
          Ok (n, budget, metric, epsilon)
      | _ -> fail "malformed manifest fields")
  | Ok _ -> fail "not a wavesyn store manifest"

let config_of_manifest ~dir text =
  match decode_manifest ~path:"<shipped manifest>" text with
  | Error _ as e -> e
  | Ok (n, budget, metric, epsilon) ->
      Ok (config ~epsilon ~dir ~n ~budget metric)

let read_manifest dir =
  let path = manifest_path dir in
  Result.bind (Validate.read_whole path) (decode_manifest ~path)

let write_manifest cfg =
  let path = manifest_path cfg.dir in
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (manifest_text cfg);
        flush oc;
        if cfg.sync then Unix.fsync (Unix.descr_of_out_channel oc));
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error reason -> Error (Validate.Io_error { path; reason })
  | exception Unix.Unix_error (e, _, _) ->
      Error (Validate.Io_error { path; reason = Unix.error_message e })

(* --- recovery --- *)

type recovery = {
  generation : int option;
  corrupt_generations : int list;
  replayed : int;
  truncated : bool;
}

let pp_recovery ppf r =
  Format.fprintf ppf "generation=%s replayed=%d truncated=%s corrupt=[%s]"
    (match r.generation with Some g -> string_of_int g | None -> "none")
    r.replayed
    (if r.truncated then "yes" else "no")
    (String.concat "," (List.map string_of_int r.corrupt_generations))

(* Rebuild the exact coefficient state: newest verifiable snapshot
   generation, then the journaled suffix in order through the very same
   [Stream_synopsis.update] code path the live loop uses — float
   arithmetic, and hence the recovered state, is bit-identical. *)
let rebuild ~dir ~n =
  let ( let* ) = Result.bind in
  let* snap = Snapshot.read_latest ~dir in
  let* stream, since =
    match snap.Snapshot.state with
    | Some state ->
        if state.Snapshot.n <> n then
          bad_shape dir
            (Printf.sprintf "snapshot domain %d does not match store domain %d"
               state.Snapshot.n n)
        else Ok (Snapshot.to_stream state, state.Snapshot.seq)
    | None -> Ok (Stream_synopsis.create ~n, 0)
  in
  let* replay = Journal.replay ~since ~dir () in
  List.iter
    (fun { Journal.i; delta; _ } ->
      if i < n then Stream_synopsis.update stream ~i ~delta)
    replay.Journal.records;
  let seq =
    List.fold_left
      (fun acc r -> Stdlib.max acc r.Journal.seq)
      since replay.Journal.records
  in
  Ok
    ( stream,
      seq,
      {
        generation = snap.Snapshot.generation;
        corrupt_generations = snap.Snapshot.corrupt;
        replayed = List.length replay.Journal.records;
        truncated = replay.Journal.truncated;
      },
      snap )

type recovered = {
  r_config : config;
  r_stream : Stream_synopsis.t;
  r_seq : int;
  r_recovery : recovery;
}

let recover ~dir =
  let ( let* ) = Result.bind in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error
      (Validate.Io_error { path = dir; reason = "no such store directory" })
  else
    let* n, budget, metric, epsilon = read_manifest dir in
    let cfg = config ~epsilon ~dir ~n ~budget metric in
    let* stream, seq, recovery, _ = rebuild ~dir ~n in
    Ok { r_config = cfg; r_stream = stream; r_seq = seq; r_recovery = recovery }

(* --- telemetry ---

   Every instrument of the [store.*] / [stream.*] metric families from
   docs/OBSERVABILITY.md, registered once at [open_store] — into a
   private registry when the caller supplies none, so the counters are
   the store's own counts either way. What costs more than a store
   (clock reads, ladder hooks, the stream observer) runs only for a
   caller's registry. *)

type telemetry = {
  ingest_ms : Metric.histogram;
  ingest_accepted : Metric.counter;
  ingest_rejected : Metric.counter;
  journal_appends : Metric.counter;
  journal_fsyncs : Metric.counter;
  journal_rotations : Metric.counter;
  checkpoint_ms : Metric.histogram;
  checkpoint_completed : Metric.counter;
  checkpoint_failed : Metric.counter;
  checkpoint_generation : Metric.gauge;
  recut_ms : Metric.histogram;
  recut_served : Metric.counter;
  recut_degraded : Metric.counter;
  recut_rejected : Metric.counter;
  breaker_state : Metric.gauge;
  breaker_transitions : Metric.counter;
  seq_gauge : Metric.gauge;
  recovery_replayed : Metric.counter;
  stream_updates : Metric.counter;
  stream_coeff_touches : Metric.counter;
}

let telemetry reg =
  let c name ~help ~unit_ = Registry.counter reg ~help ~unit_ name in
  let g name ~help ~unit_ = Registry.gauge reg ~help ~unit_ name in
  let h name ~help = Registry.histogram reg ~help ~unit_:"ms" name in
  {
    ingest_ms =
      h "store.ingest.ms"
        ~help:
          "end-to-end ingest latency (journal, apply, cadenced \
           recut/checkpoint)";
    ingest_accepted =
      c "store.ingest.accepted" ~help:"updates journaled and applied"
        ~unit_:"updates";
    ingest_rejected =
      c "store.ingest.rejected"
        ~help:"ingests returning an error (validation or journal failure)"
        ~unit_:"updates";
    journal_appends =
      c "store.journal.appends" ~help:"records appended to the WAL"
        ~unit_:"records";
    journal_fsyncs =
      c "store.journal.fsyncs" ~help:"fsyncs issued by WAL appends"
        ~unit_:"fsyncs";
    journal_rotations =
      c "store.journal.rotations" ~help:"successful journal rotations"
        ~unit_:"rotations";
    checkpoint_ms = h "store.checkpoint.ms" ~help:"checkpoint duration";
    checkpoint_completed =
      c "store.checkpoint.completed" ~help:"snapshots written"
        ~unit_:"checkpoints";
    checkpoint_failed =
      c "store.checkpoint.failed" ~help:"checkpoints failed after retries"
        ~unit_:"checkpoints";
    checkpoint_generation =
      g "store.checkpoint.generation" ~help:"newest snapshot generation"
        ~unit_:"generation";
    recut_ms = h "store.recut.ms" ~help:"synopsis re-cut duration";
    recut_served =
      c "store.recut.served" ~help:"re-cuts that produced a synopsis"
        ~unit_:"recuts";
    recut_degraded =
      c "store.recut.degraded"
        ~help:"re-cuts degraded to the greedy floor" ~unit_:"recuts";
    recut_rejected =
      c "store.recut.rejected" ~help:"re-cuts rejected by the open breaker"
        ~unit_:"recuts";
    breaker_state =
      g "store.breaker.state"
        ~help:"circuit breaker state (0=closed, 1=half-open, 2=open)"
        ~unit_:"state";
    breaker_transitions =
      c "store.breaker.transitions" ~help:"breaker state changes"
        ~unit_:"transitions";
    seq_gauge =
      g "store.seq" ~help:"highest durable sequence number" ~unit_:"seq";
    recovery_replayed =
      c "store.recovery.replayed"
        ~help:"journal records replayed at the last open" ~unit_:"records";
    stream_updates =
      c "stream.updates" ~help:"live point updates applied to the stream"
        ~unit_:"updates";
    stream_coeff_touches =
      c "stream.coeff_touches"
        ~help:"coefficients touched by live updates (log2 N + 1 each)"
        ~unit_:"coefficients";
  }

(* Count live traffic into [stream.*] for a caller's registry. Attached
   only once a state is rebuilt or installed, so journal replay never
   counts as live. *)
let observe_stream obs m stream =
  match obs with
  | None -> ()
  | Some _ ->
      Stream_synopsis.set_observer stream
        (Some
           (fun touches ->
             Metric.incr m.stream_updates;
             Metric.incr ~by:touches m.stream_coeff_touches))

(* --- the supervised loop --- *)

type role = Primary | Follower

let role_name = function Primary -> "primary" | Follower -> "follower"

type stats = {
  seq : int;
  updates : int;
  acked : int;
  recuts_served : int;
  recuts_degraded : int;
  recuts_rejected : int;
  checkpoints : int;
  checkpoint_failures : int;
  last_generation : int option;
  breaker : Retry.Breaker.state;
}

type t = {
  cfg : config;
  fault : Fault.t;
  retry : Retry.policy;
  retry_attempts : int;
  breaker : Retry.Breaker.t;
  obs : Registry.t option;
      (* the caller's registry: forwarded to Ladder.serve for
         dp.*/ladder.*, and the gate on timing and tracing *)
  trace : Trace.sink option;  (* honoured only with [obs] *)
  m : telemetry;
  mutable role : role;
  mutable stream : Stream_synopsis.t;
  mutable journal : Journal.t;
  mutable seq : int;
  mutable served : Ladder.served option;
  mutable last_generation : int option;
  mutable retained : (int * int Lazy.t) list;
      (* The snapshot generations on disk, newest first, each with the
         seq the journal is compacted through while it is the oldest:
         its own seq when it verifies, else 0 (torn, or written with a
         flipped bit). A generation recovery did not read is decoded
         when first forced. *)
  mutable keep_after : int;
  recovery : recovery;
}

let validate_config cfg =
  let ( let* ) = Result.bind in
  let* _ = Validate.budget cfg.budget in
  let* _ = Validate.epsilon cfg.epsilon in
  if not (Float_util.is_pow2 cfg.n) then
    bad_shape cfg.dir (Printf.sprintf "domain %d is not a power of two" cfg.n)
  else if cfg.checkpoint_every < 1 || cfg.recut_every < 1 || cfg.keep < 1 then
    bad_option "supervisor config"
      "checkpoint-every, recut-every and keep must be >= 1"
  else Ok ()

let ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (Validate.Io_error { path = dir; reason = "not a directory" })
  else
    match Unix.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        Error (Validate.Io_error { path = dir; reason = Unix.error_message e })

let open_store ?obs ?trace ?(fault = Fault.none) ?retry ?(retry_attempts = 4)
    ?breaker ?(role = Primary) cfg =
  let ( let* ) = Result.bind in
  let* () = validate_config cfg in
  let* () = ensure_dir cfg.dir in
  let* () =
    match read_manifest cfg.dir with
    | Ok (n, _, _, _) ->
        if n <> cfg.n then
          bad_shape cfg.dir
            (Printf.sprintf "store was created with domain %d, reopened with %d"
               n cfg.n)
        else write_manifest cfg
    | Error (Validate.Io_error _) -> write_manifest cfg
    | Error _ as e -> e
  in
  let* stream, seq, recovery, snap = rebuild ~dir:cfg.dir ~n:cfg.n in
  (* Recovery read the generation it restored and the newer ones it
     rejected; the older ones stay unread until one is the oldest. *)
  let* gens = Snapshot.list ~dir:cfg.dir in
  let retained =
    List.map
      (fun g ->
        match snap.Snapshot.state with
        | Some st when snap.Snapshot.generation = Some g ->
            (g, Lazy.from_val st.Snapshot.seq)
        | _ when List.mem g snap.Snapshot.corrupt -> (g, Lazy.from_val 0)
        | _ ->
            ( g,
              lazy
                (match
                   Snapshot.decode_file (Snapshot.file_of_generation cfg.dir g)
                 with
                | Ok s -> s.Snapshot.seq
                | Error _ -> 0) ))
      gens
  in
  (* Clear any torn/corrupt tail before appending: a new record glued
     onto a partial line would itself be unreadable. *)
  let* _ =
    if recovery.truncated then Journal.repair ~dir:cfg.dir
    else Ok { Journal.records = []; truncated = false; valid_bytes = 0 }
  in
  let* journal =
    Journal.open_writer ~fault ~sync:cfg.sync ~dir:cfg.dir ~next_seq:(seq + 1)
      ()
  in
  let retry =
    match retry with Some p -> p | None -> Retry.policy ~seed:7 ()
  in
  let breaker =
    match breaker with Some b -> b | None -> Retry.Breaker.create ()
  in
  let m =
    telemetry (match obs with Some r -> r | None -> Registry.create ())
  in
  Metric.incr ~by:recovery.replayed m.recovery_replayed;
  Metric.set_int m.seq_gauge seq;
  Metric.set m.breaker_state
    (Retry.Breaker.state_value (Retry.Breaker.state breaker));
  observe_stream obs m stream;
  Log.info (fun m ->
      m "opened %s at seq %d (%a)" cfg.dir seq pp_recovery recovery);
  Ok
    {
      cfg;
      fault;
      retry;
      retry_attempts;
      breaker;
      obs;
      trace = Option.bind obs (fun _ -> trace);
      m;
      role;
      stream;
      journal;
      seq;
      served = None;
      last_generation = None;
      retained;
      keep_after = 0;
      recovery;
    }

let stream t = t.stream
let seq t = t.seq
let role t = t.role
let last_recovery t = t.recovery
let last_served t = t.served
let keep_after t = t.keep_after

let promote t =
  if t.role = Follower then begin
    t.role <- Primary;
    Log.info (fun m -> m "promoted to primary at seq %d" t.seq)
  end

let acked t = Metric.counter_value t.m.journal_appends

let stats t =
  let v = Metric.counter_value in
  {
    seq = t.seq;
    updates = Stream_synopsis.updates_seen t.stream;
    acked = acked t;
    recuts_served = v t.m.recut_served;
    recuts_degraded = v t.m.recut_degraded;
    recuts_rejected = v t.m.recut_rejected;
    checkpoints = v t.m.checkpoint_completed;
    checkpoint_failures = v t.m.checkpoint_failed;
    last_generation = t.last_generation;
    breaker = Retry.Breaker.state t.breaker;
  }

(* The one instrumented section: [f t a b], timed into the histogram
   [hist] selects and, with a trace sink, inside a [name] span. A
   section opened inside another nests its span there, so an [ingest]
   span encloses the [recut] and [checkpoint] spans its cadences open.
   Two arguments spare [ingest] a tuple (the other sections pass
   units); without [obs] this is the bare call, no closure. *)
let timed hist f t a b =
  let c0 = Mclock.now_ns () in
  let r = f t a b in
  Metric.observe (hist t.m) (Mclock.ms_since c0);
  r

let section t hist name f a b =
  match (t.obs, t.trace) with
  | None, _ -> f t a b
  | Some _, None -> timed hist f t a b
  | Some _, Some sink ->
      Trace.with_span sink name (fun () -> timed hist f t a b)

(* A re-cut "fails" for the breaker when it degrades all the way to the
   greedy floor with every better tier timed out or broken: serving
   continues on the floor answer, but pounding the expensive tiers
   again right away is pointless — the breaker spaces the retries. *)
let recut_body t () () =
  let attempt () =
    match
      Ladder.serve ?obs:t.obs ?trace:t.trace
        ?deadline_ms:t.cfg.recut_deadline_ms ~epsilon:t.cfg.epsilon
        ~fault:t.fault
        ~data:(Stream_synopsis.current_data t.stream)
        ~budget:t.cfg.budget t.cfg.metric
    with
    | Error _ as e -> e
    | Ok served as ok ->
        t.served <- Some served;
        Metric.incr t.m.recut_served;
        let degraded =
          served.Ladder.tier = Ladder.Greedy_maxerr
          && List.exists
               (fun (a : Ladder.attempt) -> a.Ladder.outcome <> Ladder.Answered)
               served.Ladder.attempts
        in
        if degraded then begin
          Metric.incr t.m.recut_degraded;
          bad_shape "recut"
            ("degraded to the greedy floor: "
            ^ Ladder.describe_attempts served.Ladder.attempts)
        end
        else ok
  in
  (* Breaker transitions are observed around the call: any state
     change (trip, probe, reset) shows up as exactly one transition. *)
  let before = Retry.Breaker.state t.breaker in
  let result = Retry.Breaker.call t.breaker attempt in
  let after = Retry.Breaker.state t.breaker in
  if after <> before then Metric.incr t.m.breaker_transitions;
  Metric.set t.m.breaker_state (Retry.Breaker.state_value after);
  (match result with
  | Error Retry.Breaker.Open_circuit -> Metric.incr t.m.recut_rejected
  | Ok _ | Error (Retry.Breaker.Inner _) -> ());
  result

let recut t = section t (fun m -> m.recut_ms) "recut" recut_body () ()

(* --- persisting snapshots --- *)

(* A retried [Snapshot.write] of [state], recorded as the newest
   generation: the step [checkpoint] and a follower's
   [install_snapshot] share. [retained] follows the directory as
   [Snapshot.write] leaves it: the new generation in front, pruned to
   [keep]. A torn write is the simulated death of the process: the
   store is reopened, and [open_store] reads the directory afresh. *)
let persist t state =
  match
    Retry.with_retries t.retry ~attempts:t.retry_attempts (fun () ->
        Snapshot.write ~fault:t.fault ~keep:t.cfg.keep ~sync:t.cfg.sync
          ~dir:t.cfg.dir state)
  with
  | Error _ as e -> e
  | Ok { Snapshot.gen; intact } ->
      let seq = Lazy.from_val (if intact then state.Snapshot.seq else 0) in
      t.retained <-
        List.filteri (fun k _ -> k < t.cfg.keep) ((gen, seq) :: t.retained);
      t.last_generation <- Some gen;
      Metric.set_int t.m.checkpoint_generation gen;
      Ok gen

(* Drop the journal's records at or before [keep_after]. Rotation is
   space management, not correctness: on failure the journal simply
   stays longer, and [what] names the rotation in the warning. *)
let compact t ~keep_after ~what =
  match Journal.rotate t.journal ~keep_after with
  | Ok _ -> Metric.incr t.m.journal_rotations
  | Error e ->
      Log.warn (fun m -> m "%s failed: %s" what (Validate.to_string e))

let checkpoint_body t () () =
  match persist t (Snapshot.of_stream ~seq:t.seq t.stream) with
  | Error e as err ->
      Metric.incr t.m.checkpoint_failed;
      Log.warn (fun m -> m "checkpoint failed: %s" (Validate.to_string e));
      err
  | Ok _ as ok ->
      Metric.incr t.m.checkpoint_completed;
      (* The journal must keep reaching back to the *oldest* retained
         generation, so a corrupt newer one can still fall back. *)
      t.keep_after <-
        (match List.rev t.retained with
        | [] -> 0
        | (_, seq) :: _ -> Lazy.force seq);
      compact t ~keep_after:t.keep_after ~what:"rotation";
      ok

let checkpoint t =
  section t (fun m -> m.checkpoint_ms) "checkpoint" checkpoint_body () ()

(* --- the write path --- *)

(* Journal, then apply: the one write discipline of [ingest] and of a
   shipped record. The update is on disk before it touches the state,
   so a crash between the two replays it on recovery. A shipped record
   must land at the primary's sequence number [expect] (the journal
   assigns [t.seq + 1] itself). A cell outside the domain — only a
   shipped record can carry one — stays journaled verbatim and is not
   applied, the same tolerance as recovery replay. *)
let append ?expect t ~i ~delta =
  match
    Retry.with_retries t.retry ~attempts:t.retry_attempts (fun () ->
        Journal.append t.journal ~i ~delta)
  with
  | Error _ as e -> e
  | Ok seq as ok -> (
      match expect with
      | Some want when want <> seq ->
          bad_shape "apply_shipped"
            (Printf.sprintf
               "journal assigned seq %d to shipped record %d — follower WAL \
                out of step"
               seq want)
      | _ ->
          t.seq <- seq;
          Metric.incr t.m.journal_appends;
          if t.cfg.sync then Metric.incr t.m.journal_fsyncs;
          Metric.set_int t.m.seq_gauge seq;
          if i < t.cfg.n then Stream_synopsis.update t.stream ~i ~delta;
          ok)

let ingest_body t i delta =
  let r =
    if t.role = Follower then
      bad_option "ingest" "store is a read-only follower (promote it first)"
    else if i < 0 || i >= t.cfg.n then
      Error
        (Validate.Bad_value
           {
             path = None;
             line = acked t + 1;
             token = string_of_int i;
             reason = Printf.sprintf "cell out of domain [0, %d)" t.cfg.n;
           })
    else if not (Float.is_finite delta) then
      Error
        (Validate.Bad_value
           {
             path = None;
             line = acked t + 1;
             token = Printf.sprintf "%h" delta;
             reason = "not finite (NaN/Inf)";
           })
    else
      match append t ~i ~delta with
      | Error _ as e -> e
      | Ok seq as ok ->
          if seq mod t.cfg.recut_every = 0 then ignore (recut t);
          if seq mod t.cfg.checkpoint_every = 0 then ignore (checkpoint t);
          ok
  in
  Metric.incr
    (match r with Ok _ -> t.m.ingest_accepted | Error _ -> t.m.ingest_rejected);
  r

let ingest t ~i ~delta =
  section t (fun m -> m.ingest_ms) "ingest" ingest_body i delta

(* --- follower replication --- *)

let apply_shipped t (batch : Journal.batch) =
  if t.role <> Follower then
    bad_option "apply_shipped" "store is not a follower"
  else if batch.Journal.b_since <> t.seq then
    bad_shape "apply_shipped"
      (Printf.sprintf "batch continues from seq %d but store is at %d"
         batch.Journal.b_since t.seq)
  else begin
    (* Re-cuts are the serving layer's business; only the checkpoint
       cadence runs here. *)
    let rec go = function
      | [] -> Ok t.seq
      | { Journal.seq; i; delta } :: tl -> (
          match append ~expect:seq t ~i ~delta with
          | Ok seq ->
              if seq mod t.cfg.checkpoint_every = 0 then ignore (checkpoint t);
              go tl
          | Error _ as e -> e)
    in
    go batch.Journal.b_records
  end

let install_snapshot t (state : Snapshot.state) =
  if t.role <> Follower then
    bad_option "install_snapshot" "store is not a follower"
  else if state.Snapshot.n <> t.cfg.n then
    bad_shape "install_snapshot"
      (Printf.sprintf "snapshot domain %d does not match store domain %d"
         state.Snapshot.n t.cfg.n)
  else if state.Snapshot.seq < t.seq then
    bad_shape "install_snapshot"
      (Printf.sprintf "snapshot seq %d is behind store seq %d"
         state.Snapshot.seq t.seq)
  else
    match persist t state with
    | Error _ as e -> e
    | Ok gen -> (
        let stream = Snapshot.to_stream state in
        observe_stream t.obs t.m stream;
        t.stream <- stream;
        (* Re-align the WAL writer with the installed history: records
           at or before the snapshot are superseded, and the next
           shipped record continues from [state.seq + 1]. *)
        Journal.close t.journal;
        match
          Journal.open_writer ~fault:t.fault ~sync:t.cfg.sync ~dir:t.cfg.dir
            ~next_seq:(state.Snapshot.seq + 1) ()
        with
        | Error _ as e -> e
        | Ok j ->
            t.journal <- j;
            t.seq <- state.Snapshot.seq;
            compact t ~keep_after:t.seq ~what:"post-install rotation";
            Metric.set_int t.m.seq_gauge t.seq;
            Log.info (fun m ->
                m "installed shipped snapshot at seq %d (generation %d)"
                  t.seq gen);
            Ok t.seq)

let close t =
  Journal.close t.journal

let crash t =
  Journal.abandon t.journal
