(* The server under test, run as its own process (the benchmark
   re-executes itself as `wsbench.exe serve ...`). It builds exactly the
   server `wavesyn server` builds for the same flags — queue 64, one
   job, absolute error, epsilon 0.25, `--cache` — and serves one
   Unix-domain socket until SHUTDOWN.

   SIGUSR1 dumps the process's allocation counters and, when traced,
   the server.round spans finished so far to `usr1.<pid>.<k>` in the working
   directory: the benchmark brackets its measured phase with two of
   these. *)

module Server = Wavesyn_server.Server
module Client = Wavesyn_server.Client
module Shard = Wavesyn_server.Shard
module Supervisor = Wavesyn_robust.Supervisor
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Registry = Wavesyn_obs.Registry
module Trace = Wavesyn_obs.Trace
module Pool = Wavesyn_par.Pool
module Metrics = Wavesyn_synopsis.Metrics

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt
let ok what = function Ok v -> v | Error _ -> fail "serve: %s failed" what

let install_dump trace =
  let dumps = ref 0 in
  let dump _ =
    incr dumps;
    let file = Printf.sprintf "usr1.%d.%d" (Unix.getpid ()) !dumps in
    let oc = open_out (file ^ ".tmp") in
    let st = Gc.quick_stat () in
    Printf.fprintf oc "gc %.17g %.17g\n" (Gc.minor_words ()) st.Gc.major_words;
    Option.iter
      (fun sink ->
        Printf.fprintf oc "recorded %d\n" (Trace.recorded sink);
        List.iter
          (fun (s : Trace.span) ->
            if s.name = "server.round" then
              Printf.fprintf oc "span %d %.17g\n" s.id s.duration_ms)
          (Trace.spans sink))
      trace;
    close_out oc;
    Sys.rename (file ^ ".tmp") file
  in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle dump)

let base_config (w : Spec.t) ~path data =
  Server.config ~budget:w.budget ~metric:Metrics.Abs ~epsilon:0.25
    ~queue_bound:64 ~cache:true ~path data

let serve_static w ~path ~trace =
  let server = Server.create ?trace (base_config w ~path (Spec.dataset w)) in
  ok "run" (Server.run server)

(* `wavesyn server --store DIR --cache`: the supervisor journals
   (fsync on) and checkpoints every 64 updates; the server's
   incremental solver owns the re-cut cadence (every 32). *)
let serve_live (w : Spec.t) ~path ~trace ~store =
  let r = ok "recover" (Supervisor.recover ~dir:store) in
  let scfg =
    {
      r.Supervisor.r_config with
      Supervisor.checkpoint_every = 64;
      recut_every = max_int;
      sync = true;
    }
  in
  let obs = Registry.create () in
  let sup = ok "open" (Supervisor.open_store ~obs scfg) in
  let ship =
    {
      Server.ship_dir = store;
      ship_seq = Supervisor.seq sup;
      ship_manifest = Supervisor.manifest_text scfg;
    }
  in
  let cfg =
    Server.config ~budget:w.budget ~metric:Metrics.Abs ~epsilon:0.25
      ~queue_bound:64 ~ship ~role:"primary" ~store:sup ~recut_every:32
      ~cache:true ~path
      (Stream_synopsis.current_data (Supervisor.stream sup))
  in
  let server = Server.create ~obs ?trace cfg in
  ok "run" (Server.run server);
  ignore (Supervisor.checkpoint sup);
  Supervisor.close sup

(* `wavesyn server --shards 2 --cache`: one in-process shard server per
   key range on SOCK.shardK, behind a scatter-gather front-end. *)
let serve_sharded (w : Spec.t) ~path ~trace =
  let data = Spec.dataset w in
  let ranges = ok "split" (Shard.split ~n:w.n ~shards:w.shards) in
  let endpoints = List.mapi (fun k _ -> Printf.sprintf "%s.shard%d" path k) ranges in
  let domains =
    List.map2
      (fun endpoint { Shard.lo; hi } ->
        let slice = Array.sub data lo (hi - lo + 1) in
        Domain.spawn (fun () ->
            let pool = Pool.create ~domains:1 () in
            Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
            let cfg =
              Server.config ~budget:w.budget ~metric:Metrics.Abs ~epsilon:0.25
                ~queue_bound:64 ~path:endpoint slice
            in
            ignore (Server.run (Server.create ~pool cfg))))
      endpoints ranges
  in
  let clients =
    List.map (fun e -> ok "shard connect" (Client.connect ~wait_ms:30_000. e)) endpoints
  in
  let rpcs = Array.of_list (List.map (fun c req -> Client.request c req) clients) in
  let router = ok "router" (Shard.router ~n:w.n ~ranges rpcs) in
  let server = Server.create ?trace ~router (base_config w ~path data) in
  let result = Server.run server in
  Shard.shutdown router;
  List.iter Client.close clients;
  List.iter Domain.join domains;
  ok "run" result

let main ~(w : Spec.t) ~path ~traced ~store =
  let trace = if traced then Some (Trace.sink ~capacity:(1 lsl 18) ()) else None in
  install_dump trace;
  match w.kind with
  | Spec.Static -> serve_static w ~path ~trace
  | Spec.Live -> serve_live w ~path ~trace ~store
  | Spec.Sharded -> serve_sharded w ~path ~trace
