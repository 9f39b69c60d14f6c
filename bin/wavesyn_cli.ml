(* wavesyn command-line interface.

   Subcommands:
     generate   emit a synthetic dataset (one value per line)
     decompose  print the Haar transform / resolution table of a dataset
     threshold  build a synopsis with a chosen algorithm and report errors
     evaluate   score a stored synopsis against a dataset
     compare    compare the thresholding algorithms on one dataset
     query      answer a range-sum query exactly and from a synopsis
     quantile   estimate a quantile position from a synopsis
     serve      run the durable supervised ingest loop over a store
     recover    rebuild a store's state from snapshots + journal
     stats      inspect a store read-only, or scrape a running server
     server     serve synopsis queries over a Unix-domain socket
     loadgen    drive a server with a seeded, reproducible workload

   Each flag, value list and usage rule below is defined once. *)

module Haar1d = Wavesyn_haar.Haar1d
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Minmax_dp = Wavesyn_core.Minmax_dp
module Greedy_l2 = Wavesyn_baselines.Greedy_l2
module Greedy_maxerr = Wavesyn_baselines.Greedy_maxerr
module Prob_synopsis = Wavesyn_baselines.Prob_synopsis
module Signal = Wavesyn_datagen.Signal
module Prng = Wavesyn_util.Prng
module Validate = Wavesyn_robust.Validate
module Ladder = Wavesyn_robust.Ladder
module Supervisor = Wavesyn_robust.Supervisor
module Engine = Wavesyn_aqp.Engine
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Obs_metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry
module Trace = Wavesyn_obs.Trace
module Approx_abs = Wavesyn_core.Approx_abs
module Pool = Wavesyn_par.Pool
module Fault = Wavesyn_robust.Fault
module Wire = Wavesyn_server.Wire
module Server = Wavesyn_server.Server
module Client = Wavesyn_server.Client
module Loadgen = Wavesyn_server.Loadgen
module Failover = Wavesyn_server.Failover
module Replica = Wavesyn_server.Replica
module Endpoint = Wavesyn_server.Endpoint
module Shard = Wavesyn_server.Shard

open Cmdliner

(* --- errors and usage rules --- *)

(* Untrusted input never surfaces as an uncaught exception: validation
   errors print one line on stderr and exit with the structured error's
   code (2 usage, 65 bad data, 66 unreadable input). *)
let die err : 'a =
  prerr_endline ("wavesyn: " ^ Validate.to_string err);
  exit (Validate.exit_code err)

let ok_or_die = function Ok v -> v | Error e -> die e

(* Every usage error: "wavesyn: WHAT: REASON", exit 2. *)
let usage what reason = die (Validate.Bad_option { what; reason })

let ok_or_usage what = function Ok v -> v | Error reason -> usage what reason

let open_out_or_die path =
  match open_out path with
  | oc -> oc
  | exception Sys_error reason -> die (Validate.Io_error { path; reason })

let write_file path text =
  let oc = open_out_or_die path in
  output_string oc text;
  close_out oc

(* "a, b or c" *)
let or_list names =
  match List.rev names with
  | [] -> ""
  | [ one ] -> one
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last

(* Two flags for one input: at most one of them may be given. *)
let either (a, x) (b, y) =
  match (x, y) with
  | Some _, Some _ ->
      usage (a ^ "/" ^ b) (Printf.sprintf "pass either %s or %s, not both" a b)
  | Some x, None -> Some (Either.Left x)
  | None, Some y -> Some (Either.Right y)
  | None, None -> None

(* ... and exactly one, when the input has no default. *)
let one_of_two ?missing (a, x) (b, y) =
  match either (a, x) (b, y) with
  | Some choice -> choice
  | None ->
      let reason = Printf.sprintf "pass one of %s or %s" a b in
      usage (a ^ "/" ^ b) (Option.value missing ~default:reason)

(* An endpoint spelled directly or as the HOST:PORT of its -tcp twin. *)
let tcp_spelling =
  Either.fold ~left:Fun.id ~right:(fun host_port -> "tcp:" ^ host_port)

(* A flag's range rule, checked as the command line is evaluated, so a
   bad value is refused before the command does anything. *)
let checked ~flag ~reason ok arg =
  Term.(const (fun v -> if not (ok v) then usage flag reason; v) $ arg)

(* An enumerated flag's name table: its parser, the "expected ..." list
   of its error and its doc are all built from [table]. *)
let enum ~names ~noun ~docv ~doc table =
  let flag = "--" ^ List.hd names in
  let expected = or_list (List.map fst table) in
  let parse name =
    match List.assoc_opt name table with
    | Some v -> v
    | None ->
        usage (flag ^ " " ^ name)
          (Printf.sprintf "unknown %s (expected %s)" noun expected)
  in
  (parse, Arg.info names ~docv ~doc:(doc expected))

(* --- shared data-source arguments --- *)

let generators =
  let periodic ~rng ~n =
    if n < 4 then
      usage "--gen periodic" "needs -n of at least 4 (its period is n/4)";
    Signal.noisy_periodic ~rng ~n ~period:(n / 4) ~amplitude:20. ~noise:2.
  in
  [
    ("zipf", fun ~rng ~n -> Signal.zipf ~rng ~n ~alpha:1.2 ~scale:100.);
    ("bumps", fun ~rng ~n -> Signal.gaussian_bumps ~rng ~n ~bumps:5 ~amplitude:50.);
    ("walk", fun ~rng ~n -> Signal.random_walk ~rng ~n ~step:3.);
    ("periodic", periodic);
    ("spikes", fun ~rng ~n ->
        Signal.spikes ~rng ~n ~count:(Stdlib.max 1 (n / 16)) ~amplitude:60.);
    ("steps", fun ~rng ~n ->
        Signal.piecewise_constant ~rng ~n ~segments:6 ~amplitude:30.);
    ("uniform", fun ~rng ~n -> Signal.uniform ~rng ~n ~lo:0. ~hi:100.);
  ]

(* zipf when no generator is named. *)
let generate gen ~n ~seed =
  let gen = Option.value gen ~default:(List.assoc "zipf" generators) in
  gen ~rng:(Prng.create ~seed) ~n

let file_arg =
  Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"PATH"
         ~doc:"Read the dataset from $(docv) (one float per line).")

let gen_arg =
  let parse, flag_info =
    enum ~names:[ "gen"; "g" ] ~noun:"generator" ~docv:"NAME"
      ~doc:(Printf.sprintf "Generate a dataset: %s.") generators
  in
  Term.(const (Option.map parse) $ Arg.(value & opt (some string) None flag_info))

let n_arg ~doc =
  let cap = Validate.default_max_values in
  checked ~flag:"-n" ~reason:(Printf.sprintf "must be at most %d" cap)
    (fun n -> n <= cap)
    (checked ~flag:"-n" ~reason:"must be at least 1" (fun n -> n >= 1)
       Arg.(value & opt int 64 & info [ "n" ] ~docv:"N" ~doc))

let gen_n_arg = n_arg ~doc:"Generated dataset size."

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")

(* A command's dataset: --file, or --gen at -n and --seed, padded to a
   power of two. [load] runs when the command asks, after it has
   refused its other flags; [given] says whether --file or --gen was
   passed at all. *)
type source = { given : bool; load : unit -> float array }

let data_arg =
  let source file gen n seed =
    let load () =
      Haar1d.pad_pow2
        (match either ("--file", file) ("--gen", gen) with
        | Some (Either.Left path) -> ok_or_die (Validate.read_file path)
        | Some (Either.Right _) | None -> generate gen ~n ~seed)
    in
    { given = Option.is_some file || Option.is_some gen; load }
  in
  Term.(const source $ file_arg $ gen_arg $ gen_n_arg $ seed_arg)

(* --- shared solver arguments --- *)

let jobs_arg =
  checked ~flag:"--jobs" ~reason:"must be at least 1" (fun j -> j >= 1)
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Size of the deterministic solver pool (OCaml domains). \
                   Results are bit-identical for every value \
                   (docs/PARALLELISM.md); 1, the default, runs everything on \
                   the calling domain and spawns nothing.")

(* [f] over a solver pool of --jobs domains. The pool's par.*
   instruments join [obs] only when the pool can actually fan out, so a
   --jobs 1 exposition stays byte-identical to the sequential code's. *)
let with_pool ?obs jobs f =
  let pool = Pool.create ?obs:(if jobs > 1 then obs else None) ~domains:jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let budget_arg =
  checked ~flag:"--budget" ~reason:"must be non-negative"
    (fun b -> Result.is_ok (Validate.budget b))
    Arg.(value & opt int 8 & info [ "budget"; "B" ] ~docv:"B"
           ~doc:"Synopsis budget.")

let sanity_arg =
  checked ~flag:"--sanity" ~reason:"must be positive" (fun s -> s > 0.)
    Arg.(value & opt float 1.0 & info [ "sanity"; "s" ] ~docv:"S"
           ~doc:"Sanity bound for relative error.")

let epsilon_arg ~doc =
  checked ~flag:"--epsilon" ~reason:"must be in (0, 1]"
    (fun e -> Result.is_ok (Validate.epsilon e))
    Arg.(value & opt float 0.25 & info [ "epsilon" ] ~docv:"EPS" ~doc)

let deadline_arg ~doc =
  checked ~flag:"--deadline-ms" ~reason:"must be positive"
    (Option.fold ~none:true ~some:(fun ms -> ms > 0.))
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let out_arg ~names ~doc =
  Arg.(value & opt (some string) None & info names ~docv:"PATH" ~doc)

(* --- the algorithms --algo names --- *)

(* How an algorithm solves: a MinMaxErr DP under its metric at a sanity
   bound (the metric --target and --ladder need), the approx-abs DP, or
   a heuristic with no DP states to report. *)
type solver =
  | Minmax of (float -> Metrics.error_metric)
  | Approx
  | Plain of (sanity:float -> budget:int -> float array -> Synopsis.t)

let algos =
  let prob kind ~sanity ~budget data =
    let plan = Prob_synopsis.build ~data ~budget kind (Metrics.Rel { sanity }) in
    Prob_synopsis.round plan (Prng.create ~seed:1)
  in
  [
    ("minmax-rel", Minmax (fun sanity -> Metrics.Rel { sanity }));
    ("minmax-abs", Minmax (fun _ -> Metrics.Abs));
    ("approx-abs", Approx);
    ("l2", Plain (fun ~sanity:_ ~budget data -> Greedy_l2.threshold ~data ~budget));
    ("greedy-maxerr", Plain (fun ~sanity ~budget data ->
         Greedy_maxerr.threshold ~data ~budget (Metrics.Rel { sanity })));
    ("prob-var", Plain (prob Prob_synopsis.Min_rel_var));
    ("prob-bias", Plain (prob Prob_synopsis.Min_rel_bias));
  ]

let reports_dp = function Minmax _ | Approx -> true | Plain _ -> false

let names_of p =
  List.filter_map (fun (name, s) -> if p s then Some name else None) algos

let algo_arg =
  let parse, flag_info =
    enum ~names:[ "algo"; "a" ] ~noun:"algorithm" ~docv:"ALGO"
      ~doc:(Printf.sprintf "Algorithm: %s.")
      (List.map (fun ((name, _) as algo) -> (name, algo)) algos)
  in
  Term.(const parse $ Arg.(value & opt string "minmax-rel" flag_info))

(* The one synopsis builder. DP algorithms also report their state count
   (and approx-abs its τ sweeps), pinned in docs/KERNELS.md and checked
   by cram/kernels.t. *)
let build ?(jobs = 1) ?(epsilon = 0.25) ~sanity ~budget solver data =
  match solver with
  | Minmax metric ->
      let r = Minmax_dp.solve ~data ~budget (metric sanity) in
      (r.Minmax_dp.synopsis, Some (r.Minmax_dp.dp_states, None))
  | Approx ->
      let n = Array.length data in
      let nd = Wavesyn_util.Ndarray.of_flat_array ~dims:[| n |] data in
      (* The one solver that fans out, so the one that gets a pool. *)
      let r =
        with_pool jobs @@ fun pool ->
        let pool = if jobs > 1 then Some pool else None in
        Approx_abs.solve ?pool ~data:nd ~budget ~epsilon ()
      in
      let syn = Synopsis.make ~n (Synopsis.Md.coeffs r.Approx_abs.synopsis) in
      (syn, Some (r.Approx_abs.dp_states, Some r.Approx_abs.sweeps))
  | Plain threshold -> (threshold ~sanity ~budget data, None)

let minmax_metric ~flag ~sanity (name, solver) =
  match solver with
  | Minmax metric -> metric sanity
  | Approx | Plain _ ->
      usage flag
        (Printf.sprintf "requires a minmax algorithm (%s), got %s"
           (or_list (names_of (function Minmax _ -> true | _ -> false)))
           name)

(* The "errors:" line of a synopsis against its dataset. *)
let print_errors ~sanity data syn =
  Format.printf "errors: %a@." Metrics.pp_summary
    (Metrics.summary ~sanity ~data ~approx:(Synopsis.reconstruct syn) ())

(* --- generate --- *)

let generate_cmd =
  let run gen n seed =
    Array.iter (fun x -> Printf.printf "%g\n" x) (generate gen ~n ~seed)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a synthetic dataset.")
    Term.(const run $ gen_arg $ gen_n_arg $ seed_arg)

(* --- decompose --- *)

let decompose_cmd =
  let table_flag =
    Arg.(value & flag & info [ "table" ] ~doc:"Print the full resolution table.")
  in
  let run source table =
    let data = source.load () in
    if table then
      List.iter
        (fun row ->
          Printf.printf "resolution %d | averages:" row.Haar1d.resolution;
          Array.iter (Printf.printf " %g") row.Haar1d.averages;
          (match row.Haar1d.details with
          | None -> ()
          | Some d ->
              Printf.printf " | details:";
              Array.iter (Printf.printf " %g") d);
          print_newline ())
        (Haar1d.resolution_table data)
    else
      Array.iter (fun c -> Printf.printf "%g\n" c) (Haar1d.decompose data)
  in
  Cmd.v
    (Cmd.info "decompose" ~doc:"Print the Haar wavelet transform.")
    Term.(const run $ data_arg $ table_flag)

(* --- threshold --- *)

let threshold_cmd =
  let target_arg =
    checked ~flag:"--target" ~reason:"must not be NaN"
      (Option.fold ~none:true ~some:(fun t -> not (Float.is_nan t)))
      Arg.(value & opt (some float) None
           & info [ "target" ] ~docv:"ERR"
               ~doc:"Instead of a fixed budget, find the smallest budget whose \
                     optimal maximum error is at most $(docv) (minmax algorithms only).")
  in
  let ladder_arg =
    Arg.(value & flag
         & info [ "ladder" ]
             ~doc:"Serve through the graceful-degradation ladder \
                   minmax -> approx-additive -> greedy-maxerr and report \
                   which tier answered.")
  in
  let dp_stats_arg =
    Arg.(value & flag
         & info [ "dp-stats" ]
             ~doc:"Also print the number of dynamic-program states the solve \
                   computed (DP algorithms only; the per-kernel counts are \
                   documented in docs/KERNELS.md).")
  in
  let run source ((name, solver) as algo) budget sanity target out deadline_ms
      ladder epsilon jobs dp_stats =
    let ladder = ladder || deadline_ms <> None in
    if dp_stats && not (reports_dp solver) then
      usage "--dp-stats"
        (Printf.sprintf "requires a DP algorithm (%s)"
           (or_list (names_of reports_dp)));
    if dp_stats && ladder then
      usage "--dp-stats" "cannot be combined with --ladder/--deadline-ms";
    let data = source.load () in
    let syn =
      if ladder then begin
        if target <> None then
          usage "--target" "cannot be combined with --ladder/--deadline-ms";
        let metric = minmax_metric ~flag:"--ladder" ~sanity algo in
        let served =
          ok_or_die (Ladder.serve ?deadline_ms ~epsilon ~data ~budget metric)
        in
        let syn = served.Ladder.synopsis in
        Printf.printf "ladder: tier=%s  budget: %d  retained: %d  N: %d\n"
          (Ladder.tier_name served.Ladder.tier)
          budget (Synopsis.size syn) (Array.length data);
        Printf.printf "attempts: %s\n"
          (Ladder.describe_attempts served.Ladder.attempts);
        syn
      end
      else begin
        let syn, budget, stats =
          match target with
          | None ->
              let syn, stats = build ~jobs ~epsilon ~sanity ~budget solver data in
              (syn, budget, stats)
          | Some t ->
              let metric = minmax_metric ~flag:"--target" ~sanity algo in
              let { Minmax_dp.best; budget; feasible } =
                Minmax_dp.budget_for ~data ~target:t metric
              in
              if not feasible then
                usage "--target"
                  (Printf.sprintf
                     "unreachable: even retaining every nonzero coefficient \
                      (budget %d) the maximum error is %g"
                     (Synopsis.size best.Minmax_dp.synopsis)
                     best.Minmax_dp.max_err);
              ( best.Minmax_dp.synopsis,
                budget,
                Some (best.Minmax_dp.dp_states, None) )
        in
        Printf.printf "algorithm: %s  budget: %d  retained: %d  N: %d\n" name
          budget (Synopsis.size syn) (Array.length data);
        Printf.printf "synopsis: %s\n" (Synopsis.describe syn);
        (* Every DP algorithm reports counts, and --dp-stats refused the
           others above. *)
        if dp_stats then
          Option.iter
            (fun (states, sweeps) ->
              Printf.printf "dp-states: algo=%s n=%d budget=%d states=%d%s\n"
                name (Array.length data) budget states
                (match sweeps with
                | None -> ""
                | Some s -> Printf.sprintf " sweeps=%d" s))
            stats;
        syn
      end
    in
    print_errors ~sanity data syn;
    Option.iter
      (fun path ->
        write_file path (Synopsis.to_string syn);
        Printf.printf "wrote %s\n" path)
      out
  in
  Cmd.v
    (Cmd.info "threshold" ~doc:"Build a synopsis and report its errors.")
    Term.(const run $ data_arg $ algo_arg $ budget_arg $ sanity_arg
          $ target_arg
          $ out_arg ~names:[ "out"; "o" ] ~doc:"Write the synopsis to $(docv)."
          $ deadline_arg
              ~doc:"Bound the build: serve through the degradation ladder, \
                    giving the exact DP at most half of $(docv) milliseconds \
                    before falling back to the approximation scheme and then \
                    the greedy heuristic (implies $(b,--ladder))."
          $ ladder_arg
          $ epsilon_arg
              ~doc:"Approximation parameter: per-rounding ratio of the \
                    ladder's approximation tier (retried once at twice this \
                    value) and epsilon of the approx-abs algorithm."
          $ jobs_arg $ dp_stats_arg)

(* --- evaluate --- *)

let synopsis_file_arg =
  Arg.(required & opt (some string) None
       & info [ "synopsis" ] ~docv:"PATH" ~doc:"Synopsis file (from threshold --out).")

let evaluate_cmd =
  let run source sanity path =
    let data = source.load () in
    let text =
      match In_channel.with_open_bin path In_channel.input_all with
      | text -> text
      | exception Sys_error reason -> die (Validate.Io_error { path; reason })
    in
    let bad_shape reason = die (Validate.Bad_shape { what = path; reason }) in
    let syn =
      match Synopsis.of_string text with
      | syn -> syn
      | exception Failure reason -> bad_shape reason
    in
    if Synopsis.n syn <> Array.length data then
      bad_shape
        (Printf.sprintf "synopsis domain (%d) does not match the dataset (%d)"
           (Synopsis.n syn) (Array.length data));
    Printf.printf "synopsis: %d coefficients over %d cells\n" (Synopsis.size syn)
      (Synopsis.n syn);
    print_errors ~sanity data syn
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Evaluate a stored synopsis against a dataset.")
    Term.(const run $ data_arg $ sanity_arg $ synopsis_file_arg)

(* --- compare --- *)

let compare_cmd =
  let run source budget sanity =
    let data = source.load () in
    Printf.printf "%-14s %5s %10s %10s %10s\n" "algorithm" "size" "max-abs"
      "max-rel" "rms";
    List.iter
      (fun (name, solver) ->
        let syn, _ = build ~sanity ~budget solver data in
        let approx = Synopsis.reconstruct syn in
        let s = Metrics.summary ~sanity ~data ~approx () in
        Printf.printf "%-14s %5d %10.4f %10.4f %10.4f\n" name
          (Synopsis.size syn) s.Metrics.max_abs s.Metrics.max_rel s.Metrics.rms)
      (* approx-abs and prob-bias sit the table out. *)
      (List.filter
         (fun (name, _) -> name <> "approx-abs" && name <> "prob-bias")
         algos)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare all thresholding algorithms on a dataset.")
    Term.(const run $ data_arg $ budget_arg $ sanity_arg)

(* --- quantile --- *)

let quantile_cmd =
  let q_arg =
    checked ~flag:"Q" ~reason:"must be in [0, 1]" (fun q -> q >= 0. && q <= 1.)
      Arg.(required & pos 0 (some float) None & info [] ~docv:"Q"
             ~doc:"Quantile in [0,1].")
  in
  let run source (_, solver) budget sanity q =
    let data = source.load () in
    let syn, _ = build ~sanity ~budget solver data in
    let est = Wavesyn_aqp.Quantiles.estimate syn ~q in
    let exact = Wavesyn_aqp.Quantiles.exact data ~q in
    Printf.printf "q=%g  exact position: %d  estimated: %d  (domain %d)\n" q
      exact est (Array.length data)
  in
  Cmd.v
    (Cmd.info "quantile" ~doc:"Estimate a quantile from a synopsis.")
    Term.(const run $ data_arg $ algo_arg $ budget_arg $ sanity_arg $ q_arg)

(* --- query --- *)

(* Remote-mode plumbing shared by query, stats and loadgen
   (docs/SERVING.md). *)

let connect_tcp_arg =
  Arg.(value & opt (some string) None
       & info [ "connect-tcp" ] ~docv:"HOST:PORT"
           ~doc:"Talk to the query server listening on TCP $(docv) — \
                 shorthand for --connect tcp:$(docv).")

(* One endpoint from the two spellings; [--connect tcp:...] and
   [--connect-tcp ...] are the same thing, so passing both is a usage
   error even when they agree. *)
let endpoint_arg
    ?(doc =
      "Talk to the query server listening on the Unix-domain socket $(docv) \
       instead of working locally (or $(b,tcp:HOST:PORT) for a TCP server).")
    () =
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"SOCK" ~doc)
  in
  Term.(const (fun c t ->
            Option.map tcp_spelling (either ("--connect", c) ("--connect-tcp", t)))
        $ connect $ connect_tcp_arg)

let wait_arg =
  Arg.(value & opt float 0.
       & info [ "wait-ms" ] ~docv:"MS"
           ~doc:"Keep retrying the connection for up to $(docv) milliseconds \
                 (covers a server still binding its socket).")

let timeout_arg =
  checked ~flag:"--timeout-ms" ~reason:"must be positive"
    (function None -> true | Some ms -> ms > 0.)
    Arg.(value & opt (some float) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Bound every read and write on the server connection by \
                   $(docv) milliseconds; expiry is a structured timeout error \
                   (exit code 75).")

let connect_client ~wait_ms ?timeout_ms path =
  ok_or_die (Client.connect ~wait_ms ?timeout_ms path)

(* One request to a running server, its reply printed. *)
let request_remote ~wait_ms ?timeout_ms path request =
  let client = connect_client ~wait_ms ?timeout_ms path in
  Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
  match ok_or_die (Client.request_one client request) with
  | Wire.Stats_text body -> print_string body
  | reply -> print_endline (Wire.describe_reply reply)

(* --- network chaos plumbing (docs/SERVING.md) --- *)

(* --chaos, --chaos-rate and --chaos-seed as one fault plan, [None]
   without --chaos; [allowed] are the kinds this command may arm. *)
let chaos_arg ?(allowed = Fault.conn_kinds) () =
  let spec =
    Arg.(value & opt (some string) None
         & info [ "chaos" ] ~docv:"KINDS"
             ~doc:"Arm deterministic network fault injection: a comma list \
                   drawn from conn-drop, conn-delay, conn-truncate, \
                   corrupt-frame, blackhole, or $(b,all).")
  in
  let rate =
    checked ~flag:"--chaos-rate" ~reason:"must be in [0, 1]"
      (fun p -> p >= 0. && p <= 1.)
      Arg.(value & opt float 1.0
           & info [ "chaos-rate" ] ~docv:"P"
               ~doc:"Independent firing probability of each armed fault kind.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Seed of the chaos plan's PRNG; a run is reproducible from \
                   it.")
  in
  let kind name =
    let name = String.trim name in
    match Fault.kind_of_name name with
    | Some k when List.mem k allowed -> k
    | Some _ -> usage ("--chaos " ^ name) "not an armable connection fault here"
    | None -> usage ("--chaos " ^ name) "unknown fault kind"
  in
  let plan spec rate seed =
    Option.map
      (fun s ->
        let kinds =
          if String.trim s = "all" then allowed
          else List.map kind (String.split_on_char ',' s)
        in
        Fault.create ~kinds ~rate ~seed ())
      spec
  in
  Term.(const plan $ spec $ rate $ seed)

let query_cmd =
  let lo_arg = Arg.(value & pos 0 (some int) None & info [] ~docv:"LO") in
  let hi_arg = Arg.(value & pos 1 (some int) None & info [] ~docv:"HI") in
  let ping_arg =
    Arg.(value & flag
         & info [ "ping" ] ~doc:"Liveness probe (server mode only).")
  in
  let point_arg =
    Arg.(value & opt (some int) None
         & info [ "point" ] ~docv:"I"
             ~doc:"Reconstructed value of cell $(docv) (server mode only).")
  in
  let q_arg =
    Arg.(value & opt (some float) None
         & info [ "quantile"; "q" ] ~docv:"Q"
             ~doc:"Position of the $(docv)-quantile (server mode only).")
  in
  let server_stats_arg =
    Arg.(value & flag
         & info [ "server-stats" ]
             ~doc:"Fetch the server's metrics table (server mode only).")
  in
  let shutdown_arg =
    Arg.(value & flag
         & info [ "shutdown" ]
             ~doc:"Ask the server to drain and stop (server mode only).")
  in
  let update_arg =
    Arg.(value & opt_all string []
         & info [ "update" ] ~docv:"I:DELTA"
             ~doc:"Live point write cell $(docv) against a live server; \
                   repeated occurrences travel as one INGEST storm \
                   (server mode only).")
  in
  let storm_arg =
    Arg.(value & opt (some string) None
         & info [ "storm" ] ~docv:"PATH"
             ~doc:"Send the update stream in $(docv) (one \"cell delta\" \
                   per line; NaN/Inf refused) as one INGEST storm \
                   (server mode only).")
  in
  let parse_update spec =
    let bad = usage (Printf.sprintf "--update %s" spec) in
    match String.index_opt spec ':' with
    | None -> bad "want I:DELTA"
    | Some k -> (
        let i_s = String.sub spec 0 k in
        let d_s = String.sub spec (k + 1) (String.length spec - k - 1) in
        match int_of_string_opt i_s with
        | Some i when i >= 0 -> (
            match Validate.parse_float ~line:1 d_s with
            | Ok d -> (i, d)
            | Error e -> die e)
        | _ -> bad "bad cell index")
  in
  let run source (_, solver) budget sanity connect wait_ms timeout_ms ping
      point q server_stats shutdown updates storm lo hi =
    match connect with
    | Some path ->
        let write_actions =
          match (updates, storm) with
          | [], None -> []
          | [], Some path ->
              let deltas = ok_or_die (Validate.read_updates path) in
              [ Wire.Ingest (Array.to_list deltas) ]
          | _ :: _, Some _ -> usage "--storm" "cannot be combined with --update"
          | [ one ], None ->
              let i, delta = parse_update one in
              [ Wire.Update { i; delta } ]
          | many, None -> [ Wire.Ingest (List.map parse_update many) ]
        in
        let actions =
          List.concat
            [
              (if ping then [ Wire.Ping ] else []);
              (match point with Some i -> [ Wire.Point i ] | None -> []);
              (match q with Some q -> [ Wire.Quantile q ] | None -> []);
              (if server_stats then [ Wire.Stats ] else []);
              (if shutdown then [ Wire.Shutdown ] else []);
              write_actions;
              (match (lo, hi) with
              | Some lo, Some hi -> [ Wire.Range { lo; hi } ]
              | _ -> []);
            ]
        in
        let request =
          match actions with
          | [ one ] -> one
          | _ ->
              usage "--connect"
                "pass exactly one of --ping, --point, --q, --server-stats, \
                 --shutdown, --update, --storm or LO HI"
        in
        request_remote ~wait_ms ?timeout_ms path request
    | None -> (
        match (lo, hi) with
        | Some lo, Some hi ->
            let data = source.load () in
            (* The span rule the server applies to a RANGE request. *)
            (match Wire.range_refusal ~n:(Array.length data) ~lo ~hi with
            | Some (Wire.Error { message; _ }) -> usage "LO HI" message
            | _ -> ());
            let syn, _ = build ~sanity ~budget solver data in
            let exact = Range_query.range_sum_exact data ~lo ~hi in
            let approx = Range_query.range_sum syn ~lo ~hi in
            Printf.printf
              "range [%d, %d]  exact: %g  approx: %g  abs err: %g  rel err: %g\n"
              lo hi exact approx
              (Float.abs (exact -. approx))
              (Float.abs (exact -. approx) /. Float.max (Float.abs exact) 1.)
        | _ -> usage "LO HI" "both range bounds are required without --connect")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Answer a query from a local synopsis or a running server.")
    Term.(const run $ data_arg $ algo_arg $ budget_arg $ sanity_arg
          $ endpoint_arg () $ wait_arg $ timeout_arg $ ping_arg
          $ point_arg $ q_arg $ server_stats_arg $ shutdown_arg $ update_arg
          $ storm_arg $ lo_arg $ hi_arg)

(* --- serve / recover: the durable supervised store --- *)

let store_opt
    ?(doc = "Store directory holding snapshots, journal and manifest.") () =
  Arg.(opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let store_arg = Arg.required (store_opt ())

let metric_name = function Metrics.Abs -> "abs" | Metrics.Rel _ -> "rel"

(* --metric at --sanity; the table's names are [metric_name]'s. *)
let metric_arg =
  let parse, flag_info =
    enum ~names:[ "metric" ] ~noun:"metric" ~docv:"M"
      ~doc:(Printf.sprintf "Error metric: %s.")
      (List.map
         (fun at -> (metric_name (at 1.), at))
         [ (fun _ -> Metrics.Abs); (fun sanity -> Metrics.Rel { sanity }) ])
  in
  Term.(const parse $ Arg.(value & opt string "abs" flag_info) $ sanity_arg)

let checkpoint_arg ~doc =
  Arg.(value & opt int 64 & info [ "checkpoint-every" ] ~docv:"K" ~doc)

let recut_every_arg ~doc =
  Arg.(value & opt int 32 & info [ "recut-every" ] ~docv:"K" ~doc)

let no_fsync_arg ~doc = Arg.(value & flag & info [ "no-fsync" ] ~doc)

let pp_recovery (r : Supervisor.recovery) =
  Printf.printf "recovery: %s\n"
    (Format.asprintf "%a" Supervisor.pp_recovery r)

(* The ladder tier a store serves from, with its error guarantee. *)
let print_tier label tier syn guarantee =
  Printf.printf "%s: tier=%s retained=%d guarantee=%g\n" label
    (Ladder.tier_name tier) (Synopsis.size syn) guarantee

(* --- metrics exposition plumbing (docs/OBSERVABILITY.md) --- *)

let metrics_arg ~doc =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"PATH" ~doc)

let metrics_format_arg =
  let parse, flag_info =
    enum ~names:[ "metrics-format" ] ~noun:"format" ~docv:"FMT"
      ~doc:(Printf.sprintf "Exposition format: %s (Prometheus text).")
      [ ("table", Registry.render_table); ("prom", Registry.render_prometheus) ]
  in
  Term.(const parse $ Arg.(value & opt string "table" flag_info))

(* The registry behind --metrics DEST and its labelled dump. A file
   destination is rewritten whole on every dump (latest scrape wins);
   "-" interleaves labelled dumps with the normal output. *)
let metrics_sink ~render =
  Option.map (fun dest ->
      let reg = Registry.create () in
      let dump label =
        let text = render reg in
        match dest with
        | "-" -> Printf.printf "--- metrics %s ---\n%s" label text
        | path -> write_file path text
      in
      (reg, dump))

let serve_cmd =
  let updates_arg =
    Arg.(value & opt (some string) None
         & info [ "updates"; "u" ] ~docv:"PATH"
             ~doc:"Ingest point updates from $(docv) (one \"cell delta\" pair \
                   per line).")
  in
  let random_arg =
    checked ~flag:"--random" ~reason:"must be non-negative"
      (function None -> true | Some m -> m >= 0)
      Arg.(value & opt (some int) None
           & info [ "random" ] ~docv:"M"
               ~doc:"Ingest $(docv) seeded random updates instead of a file.")
  in
  let keep_arg =
    Arg.(value & opt int 3
         & info [ "keep" ] ~docv:"G"
             ~doc:"Snapshot generations retained in the store.")
  in
  let metrics_every_arg =
    checked ~flag:"--metrics-every" ~reason:"must be non-negative"
      (fun k -> k >= 0)
      Arg.(value & opt int 0
           & info [ "metrics-every" ] ~docv:"K"
               ~doc:"Also dump the exposition every $(docv) ingested updates \
                     (0, the default, dumps only the final state).")
  in
  let trace_arg =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Record ingest/recut/checkpoint/tier spans (requires \
                   $(b,--metrics)) and print the retained spans at the end.")
  in
  let run store n seed metric budget checkpoint_every recut_every deadline_ms
      updates random keep no_fsync metrics metrics_every render trace =
    if trace && metrics = None then usage "--trace" "requires --metrics";
    let sink = metrics_sink ~render metrics in
    let obs = Option.map fst sink in
    let trace_sink = if trace then Some (Trace.sink ()) else None in
    let cfg =
      Supervisor.config ~checkpoint_every ~recut_every
        ?recut_deadline_ms:deadline_ms ~keep ~sync:(not no_fsync) ~dir:store ~n
        ~budget metric
    in
    let sup = ok_or_die (Supervisor.open_store ?obs ?trace:trace_sink cfg) in
    Printf.printf "serve: store=%s n=%d budget=%d metric=%s\n" store n budget
      (metric_name metric);
    pp_recovery (Supervisor.last_recovery sup);
    let updates =
      match one_of_two ("--updates", updates) ("--random", random) with
      | Either.Left path -> ok_or_die (Validate.read_updates path)
      | Either.Right m ->
          let rng = Prng.create ~seed in
          Array.init m (fun _ ->
              (Prng.int rng n, float_of_int (Prng.int rng 21 - 10)))
    in
    Array.iteri
      (fun k (i, delta) ->
        ignore (ok_or_die (Supervisor.ingest sup ~i ~delta));
        match sink with
        | Some (_, dump)
          when metrics_every > 0 && (k + 1) mod metrics_every = 0 ->
            dump (Printf.sprintf "(update %d)" (k + 1))
        | _ -> ())
      updates;
    ignore (Supervisor.recut sup);
    let stats = Supervisor.stats sup in
    Printf.printf "ingested: %d updates (seq %d)\n" stats.Supervisor.acked
      stats.Supervisor.seq;
    (match Supervisor.checkpoint sup with
    | Ok _ -> ()
    | Error e ->
        Printf.printf "shutdown checkpoint failed: %s\n" (Validate.to_string e));
    Supervisor.close sup;
    let stats = Supervisor.stats sup in
    Printf.printf "checkpoints: %d (latest generation %s)\n"
      stats.Supervisor.checkpoints
      (match stats.Supervisor.last_generation with
      | Some g -> string_of_int g
      | None -> "none");
    Printf.printf "recuts: %d served, %d degraded, %d rejected\n"
      stats.Supervisor.recuts_served stats.Supervisor.recuts_degraded
      stats.Supervisor.recuts_rejected;
    (match Supervisor.last_served sup with
    | None -> print_endline "served: none"
    | Some s ->
        print_tier "served" s.Ladder.tier s.Ladder.synopsis s.Ladder.max_err);
    Option.iter (fun (_, dump) -> dump "(final)") sink;
    match trace_sink with
    | None -> ()
    | Some sink ->
        Printf.printf "trace: recorded=%d retained=%d dropped=%d\n"
          (Trace.recorded sink)
          (List.length (Trace.spans sink))
          (Trace.dropped sink);
        print_string (Trace.render sink)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the durable supervised ingest loop over a store.")
    Term.(const run $ store_arg
          $ n_arg ~doc:"Domain size of a freshly created store (power of two)."
          $ seed_arg $ metric_arg $ budget_arg
          $ checkpoint_arg
              ~doc:"Snapshot the state every $(docv) accepted updates."
          $ recut_every_arg
              ~doc:"Re-cut the served synopsis every $(docv) accepted updates."
          $ deadline_arg ~doc:"Deadline slice for each ladder re-cut."
          $ updates_arg $ random_arg $ keep_arg
          $ no_fsync_arg
              ~doc:"Skip fsync on journal appends and snapshots (faster, \
                    weaker durability; intended for tests)."
          $ metrics_arg
              ~doc:"Record the metrics of docs/OBSERVABILITY.md and dump the \
                    exposition to $(docv) ($(b,-) for stdout) when the loop \
                    finishes (and periodically, see $(b,--metrics-every))."
          $ metrics_every_arg $ metrics_format_arg $ trace_arg)

let recover_cmd =
  let run store deadline_ms =
    let r = ok_or_die (Engine.recover ?deadline_ms ~dir:store ()) in
    Printf.printf "recovered: store=%s updates=%d seq=%d\n" store
      r.Engine.updates r.Engine.seq;
    pp_recovery r.Engine.recovery;
    print_tier "synopsis" r.Engine.tier (Engine.synopsis r.Engine.engine)
      r.Engine.guarantee
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild a store's state from its snapshots and journal.")
    Term.(const run $ store_arg
          $ deadline_arg ~doc:"Deadline for the recovery re-cut.")

let stats_cmd =
  let prom_arg =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit Prometheus-format gauges instead of the summary \
                   table.")
  in
  let run store connect wait_ms timeout_ms prom =
    match one_of_two ("--store", store) ("--connect", connect) with
    | Either.Right path ->
        (* Live server metrics (server.*, and par.* when its pool fans
           out), rendered by the server itself. *)
        if prom then usage "--prom" "server stats are table-format only";
        request_remote ~wait_ms ?timeout_ms path Wire.Stats
    | Either.Left store ->
        let r = ok_or_die (Supervisor.recover ~dir:store) in
        let cfg = r.Supervisor.r_config in
        let stream = r.Supervisor.r_stream in
        let updates = Stream_synopsis.updates_seen stream in
        let coefficients = Stream_synopsis.nonzero_count stream in
        if prom then begin
          (* Point-in-time gauges over the recovered state: everything here
             is a pure function of the store's on-disk bytes, so the output
             is deterministic (the cram golden test relies on that). *)
          let reg = Registry.create () in
          let g name ~help ~unit_ v =
            Obs_metric.set (Registry.gauge reg ~help ~unit_ name) v
          in
          g "store.seq" ~help:"highest durable sequence number" ~unit_:"seq"
            (float_of_int r.Supervisor.r_seq);
          g "store.updates" ~help:"updates folded into the recovered state"
            ~unit_:"updates" (float_of_int updates);
          g "store.coefficients"
            ~help:"nonzero coefficients in the recovered state"
            ~unit_:"coefficients" (float_of_int coefficients);
          (match r.Supervisor.r_recovery.Supervisor.generation with
          | Some gen ->
              g "store.checkpoint.generation" ~help:"newest snapshot generation"
                ~unit_:"generation" (float_of_int gen)
          | None -> ());
          Obs_metric.incr ~by:r.Supervisor.r_recovery.Supervisor.replayed
            (Registry.counter reg
               ~help:"journal records replayed at the last open"
               ~unit_:"records" "store.recovery.replayed");
          print_string (Registry.render_prometheus reg)
        end
        else begin
          Printf.printf "store: dir=%s n=%d budget=%d metric=%s epsilon=%g\n"
            store cfg.Supervisor.n cfg.Supervisor.budget
            (metric_name cfg.Supervisor.metric)
            cfg.Supervisor.epsilon;
          Printf.printf "seq: %d\n" r.Supervisor.r_seq;
          Printf.printf "updates: %d\n" updates;
          Printf.printf "coefficients: %d nonzero\n" coefficients;
          pp_recovery r.Supervisor.r_recovery
        end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Inspect a store read-only, or scrape a running server's \
             metrics.")
    Term.(const run $ Arg.value (store_opt ())
          $ endpoint_arg () $ wait_arg $ timeout_arg $ prom_arg)

(* --- server / loadgen: the network serving layer (docs/SERVING.md) --- *)

(* Banner, loop and summary of every server this command runs. [stop]
   runs as soon as the loop returns. A live store is closed next: a
   primary checkpoints first, a follower's store closes as it stands,
   and a simulated kill drops its descriptors without the shutdown path,
   so whatever the journal acked before the kill is exactly what
   recovery replays. The kill then reports itself and dies with a
   SIGKILL-like status instead of printing the summary. *)
let run_server ~jobs ?(extra = []) ?(stop = ignore) (cfg : Server.config)
    server =
  Printf.printf "server: listening on %s n=%d budget=%d queue=%d jobs=%d\n%!"
    cfg.Server.path (Array.length cfg.Server.data) cfg.Server.budget
    cfg.Server.queue_bound jobs;
  List.iter (Printf.printf "server: %s\n%!") extra;
  (match (cfg.Server.store, cfg.Server.ship) with
  | Some sup, Some s ->
      Printf.printf "server: role=%s seq=%d\n%!"
        (Supervisor.role_name (Supervisor.role sup))
        s.Server.ship_seq
  | _ -> ());
  let result = Server.run server in
  stop ();
  ok_or_die result;
  Option.iter
    (fun sup ->
      if Server.crashed server then Supervisor.crash sup
      else begin
        if cfg.Server.role = Server.Primary then
          ignore (Supervisor.checkpoint sup);
        Supervisor.close sup
      end)
    cfg.Server.store;
  if Server.crashed server then begin
    Printf.printf "server: crashed (simulated kill)\n";
    exit 137
  end;
  if Server.drained server then Printf.printf "server: drained (sigterm)\n";
  let s = Server.stats server in
  Printf.printf
    "server: connections=%d requests=%d admitted=%d shed=%d errors=%d \
     recuts=%d tier=%s\n"
    s.Server.accepted s.Server.requests s.Server.admitted s.Server.shed
    s.Server.errors s.Server.recuts s.Server.tier;
  if s.Server.updates > 0 then
    Printf.printf "server: updates=%d seq=%d bound=%g\n" s.Server.updates
      (Option.fold ~none:0 ~some:Supervisor.seq cfg.Server.store)
      s.Server.bound

(* Sharded serving (server --shards / --shard-ranges): the front-end
   spawns one in-process shard server per key range on a derived
   endpoint — TCP base port + 1 + k, or SOCK.shardK — then serves the
   public endpoint through a Shard router over client connections to
   them. In-memory only: each shard cuts its slice of the dataset; a
   per-shard durable store rides behind its own shard server. *)
let shard_endpoint listen k =
  match Endpoint.parse listen with
  | Ok (Endpoint.Tcp { host; port }) ->
      Printf.sprintf "tcp:%s:%d" host (port + 1 + k)
  | _ -> Printf.sprintf "%s.shard%d" listen k

(* [cfg] is the front-end's, built first so a bad --queue/--idle-ms dies
   before any shard domain is spawned. *)
let serve_sharded ~obs ~pool ~jobs ~wait_ms ~shards ~shard_ranges
    (cfg : Server.config) =
  let n = Array.length cfg.Server.data in
  let ranges =
    match shard_ranges with
    | Some spec -> ok_or_usage "--shard-ranges" (Shard.parse_ranges ~n spec)
    | None -> ok_or_usage "--shards" (Shard.split ~n ~shards)
  in
  let endpoints = List.mapi (fun k _ -> shard_endpoint cfg.Server.path k) ranges in
  let domains =
    List.map2
      (fun endpoint { Shard.lo; hi } ->
        let slice = Array.sub cfg.Server.data lo (hi - lo + 1) in
        Domain.spawn (fun () ->
            with_pool jobs @@ fun pool ->
            let shard_cfg =
              Server.config ~budget:cfg.Server.budget ~metric:cfg.Server.metric
                ~epsilon:cfg.Server.epsilon ~queue_bound:cfg.Server.queue_bound
                ~idle_ms:cfg.Server.idle_ms ~path:endpoint slice
            in
            ignore (Server.run (Server.create ~pool shard_cfg))))
      endpoints ranges
  in
  (* The bounded-retry connect rides out the gap between a shard
     domain's spawn and its bind. *)
  let clients =
    List.map
      (fun endpoint ->
        connect_client ~wait_ms:(Float.max wait_ms 5_000.) endpoint)
      endpoints
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Client.close clients;
      List.iter Domain.join domains)
  @@ fun () ->
  let rpcs =
    Array.of_list (List.map (fun c req -> Client.request c req) clients)
  in
  let router = ok_or_usage "--shards" (Shard.router ~n ~ranges rpcs) in
  let server = Server.create ~obs ~pool ~router cfg in
  run_server ~jobs cfg server
    ~extra:
      [
        Printf.sprintf "shards=%d ranges=%s" (List.length ranges)
          (String.concat ","
             (List.map
                (fun { Shard.lo; hi } -> Printf.sprintf "%d-%d" lo hi)
                ranges));
      ]
      (* Shards outlive the front-end's loop only long enough to be told
         to stop; their sockets close before the summary prints. *)
    ~stop:(fun () -> Shard.shutdown router)

let server_cmd =
  let listen_arg =
    let listen =
      Arg.(value & opt (some string) None
           & info [ "listen" ] ~docv:"SOCK"
               ~doc:"Unix-domain socket path to listen on (a stale socket \
                     file left by a dead server is replaced), or \
                     $(b,tcp:HOST:PORT) for a TCP listener.")
    in
    let listen_tcp =
      Arg.(value & opt (some string) None
           & info [ "listen-tcp" ] ~docv:"HOST:PORT"
               ~doc:"Listen on TCP $(docv) — shorthand for --listen \
                     tcp:$(docv).")
    in
    Term.(const (fun l t ->
              tcp_spelling
                (one_of_two ~missing:"a listen endpoint is required"
                   ("--listen", l) ("--listen-tcp", t)))
          $ listen $ listen_tcp)
  in
  let shards_arg =
    checked ~flag:"--shards" ~reason:"must be at least 1" (fun s -> s >= 1)
      Arg.(value & opt int 1
           & info [ "shards" ] ~docv:"N"
               ~doc:"Partition the key domain into $(docv) contiguous \
                     key-range shards (a power of two dividing the domain \
                     size), each served by an in-process shard server on a \
                     derived endpoint (TCP port base+1+k, or SOCK.shardK), \
                     behind this scatter-gather front-end. Merged replies are \
                     byte-identical for any shard count (docs/SERVING.md).")
  in
  let shard_ranges_arg =
    Arg.(value & opt (some string) None
         & info [ "shard-ranges" ] ~docv:"SPEC"
             ~doc:"Explicit shard partition $(b,LO-HI,LO-HI,...) — \
                   inclusive ranges tiling the domain contiguously, each a \
                   power-of-two length. Overrides --shards.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"BOUND"
             ~doc:"Admission queue capacity per serving round; requests \
                   past it are shed with a structured OVERLOAD reply.")
  in
  let idle_arg =
    Arg.(value & opt float 30000.
         & info [ "idle-ms" ] ~docv:"MS"
             ~doc:"Close connections idle for longer than $(docv).")
  in
  let max_requests_arg =
    Arg.(value & opt (some int) None
         & info [ "max-requests" ] ~docv:"K"
             ~doc:"Stop after $(docv) request frames (test safety net).")
  in
  let follower_arg =
    Arg.(value & opt (some string) None
         & info [ "follower-of" ] ~docv:"SOCK"
             ~doc:"Run as a warm standby: sync the local $(b,--store) from \
                   the primary server on $(docv) (journal shipping, snapshot \
                   bootstrap when compacted), then serve its state \
                   read-to-promote.")
  in
  let crash_after_arg =
    Arg.(value & opt (some int) None
         & info [ "crash-after" ] ~docv:"K"
             ~doc:"Chaos harness: simulate a crash after $(docv) request \
                   frames — stop without answering, flushing or draining.")
  in
  let cache_arg =
    Arg.(value & flag
         & info [ "cache" ]
             ~doc:"Enable the deterministic result cache: successful RANGE \
                   and QUANTILE replies are memoised and invalidated exactly \
                   when a write is acked or the synopsis is re-cut, so \
                   transcripts are byte-identical with the cache on or off \
                   (docs/ADAPTIVE.md). Registers the serve.cache.* metrics. \
                   With --shards, also memoises per-shard sub-range sums in \
                   the router.")
  in
  let tiers_arg =
    Arg.(value & opt int 0
         & info [ "tiers" ] ~docv:"L"
             ~doc:"Pre-cut $(docv) ladder levels from the observed query \
                   mix so a pressure change swaps synopses in O(1) instead \
                   of re-cutting; rebuilt every --adapt-every rounds. \
                   Registers the adaptive.* metrics. 0 (the default) serves \
                   the classic re-cut path. Not combinable with --shards.")
  in
  let adapt_every_arg =
    Arg.(value & opt int 32
         & info [ "adapt-every" ] ~docv:"R"
             ~doc:"Rebuild the pre-cut tier set from the observed query mix \
                   every $(docv) request-carrying rounds (with --tiers).")
  in
  let run listen store follower_of source metric budget epsilon queue idle_ms
      max_requests wait_ms chaos crash_after checkpoint_every no_fsync
      recut_every cache tiers adapt_every shards shard_ranges jobs =
    let obs = Registry.create () in
    with_pool ~obs jobs @@ fun pool ->
    (* Server.config refuses out-of-range settings with Invalid_argument. *)
    let config ?ship ?role ?store ~budget ~metric ~epsilon data =
      try
        Server.config ~budget ~metric ~epsilon ~queue_bound:queue ~idle_ms
          ?max_requests ?ship ?role ?conn_fault:chaos ?crash_after ?store
          ~recut_every ~cache ~tiers ~adapt_every ~path:listen data
      with Invalid_argument reason -> usage "server" reason
    in
    if shards > 1 || shard_ranges <> None then begin
      if store <> None || follower_of <> None then
        usage "--shards"
          "sharded serving is in-memory (--file/--gen); a per-shard store \
           rides behind its own shard server";
      if tiers > 0 then
        usage "--tiers"
          "a scatter-gather front-end owns no synopsis to pre-cut; pre-cut \
           tiers are unsharded only";
      serve_sharded ~obs ~pool ~jobs ~wait_ms ~shards ~shard_ranges
        (config ~budget ~metric ~epsilon (source.load ()))
    end
    else begin
      if store <> None && source.given then
        usage "--store" "cannot be combined with --file/--gen";
      (* Both a primary's and a follower's store back the server's write
         path: a follower rejects writes until a HANDOFF promotes it. The
         server's role is its store's. *)
      let live_config ~dir ~manifest sup (scfg : Supervisor.config) =
        config ~role:(Supervisor.role_name (Supervisor.role sup)) ~store:sup
          ~ship:
            {
              Server.ship_dir = dir;
              ship_seq = Supervisor.seq sup;
              ship_manifest = manifest;
            }
          ~budget:scfg.Supervisor.budget ~metric:scfg.Supervisor.metric
          ~epsilon:scfg.Supervisor.epsilon
          (Stream_synopsis.current_data (Supervisor.stream sup))
      in
      let cfg =
        match (follower_of, store) with
        | Some _, None ->
            usage "--follower-of" "requires --store for the local replica"
        | None, None -> config ~budget ~metric ~epsilon (source.load ())
        | Some primary, Some dir ->
            let client = connect_client ~wait_ms primary in
            let { Replica.store; config = scfg; manifest; progress } =
              Fun.protect ~finally:(fun () -> Client.close client) @@ fun () ->
              ok_or_die (Replica.bootstrap ~obs ~dir client)
            in
            Printf.printf
              "follower: synced from %s seq=%d (batches=%d records=%d \
               snapshots=%d)\n"
              primary progress.Replica.final_seq progress.Replica.batches
              progress.Replica.records progress.Replica.snapshots;
            live_config ~dir ~manifest store scfg
        | None, Some dir ->
            (* Open the store for writing: this server is live — UPDATE /
               INGEST frames journal through it. Re-cut cadence is owned
               by the server's incremental solver, so the supervisor's
               own ladder cadence is pushed out of the way. *)
            let scfg =
              let r = ok_or_die (Supervisor.recover ~dir) in
              {
                r.Supervisor.r_config with
                Supervisor.checkpoint_every;
                recut_every = max_int;
                sync = not no_fsync;
              }
            in
            let sup = ok_or_die (Supervisor.open_store ~obs scfg) in
            live_config ~dir ~manifest:(Supervisor.manifest_text scfg) sup scfg
      in
      let on_drain =
        Option.map
          (fun sup () -> ignore (Supervisor.checkpoint sup))
          cfg.Server.store
      in
      let server = Server.create ~obs ~pool ?on_drain cfg in
      run_server ~jobs cfg server
    end
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:"Serve synopsis queries over a Unix-domain or TCP socket.")
    Term.(const run $ listen_arg
          $ Arg.value
              (store_opt
                 ~doc:"Serve the recovered state of the durable store $(docv); \
                       domain size, budget and metric come from its manifest."
                 ())
          $ follower_arg $ data_arg $ metric_arg $ budget_arg
          $ epsilon_arg
              ~doc:"Approximation parameter of the ladder's approx tier."
          $ queue_arg $ idle_arg $ max_requests_arg $ wait_arg $ chaos_arg ()
          $ crash_after_arg
          $ checkpoint_arg
              ~doc:"Snapshot (and compact the journal) every $(docv) applied \
                    updates when serving a live store."
          $ no_fsync_arg
              ~doc:"Skip fsync on journal appends and snapshots of a live \
                    store (faster, crash-unsafe — test harnesses only)."
          $ recut_every_arg
              ~doc:"Full ladder re-cut of a live server's synopsis every \
                    $(docv) applied updates; in between, only dirtied \
                    error-tree subtrees are re-solved."
          $ cache_arg $ tiers_arg $ adapt_every_arg $ shards_arg
          $ shard_ranges_arg $ jobs_arg)

let loadgen_cmd =
  let requests_arg =
    Arg.(value & opt int 64
         & info [ "requests" ] ~docv:"K" ~doc:"Total requests to send.")
  in
  let batch_arg =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"B"
             ~doc:"Requests per frame; a batch larger than the server's \
                   queue bound demonstrates overload shedding.")
  in
  let mix_arg =
    Term.(const (fun spec -> ok_or_usage "--mix" (Loadgen.mix_of_string spec))
          $ Arg.(value & opt string "point=4,range=3,quantile=2,ping=1"
                 & info [ "mix" ] ~docv:"SPEC"
                     ~doc:"Relative request-kind weights, e.g. \
                           point=4,range=3,quantile=2,ping=1,update=2 (update \
                           sends live point writes — needs a server over a \
                           store). The plural keys of the accuracy workload \
                           (points/ranges/selectivities/quantiles) are \
                           accepted as aliases; a selectivity query is sent \
                           as its RANGE sum."))
  in
  let hot_arg =
    Arg.(value & opt int 0
         & info [ "hot" ] ~docv:"K"
             ~doc:"Draw every request from a pre-drawn hot set of $(docv) \
                   requests (seeded, so still fully deterministic) instead \
                   of fresh parameters each time — the repeated queries a \
                   server-side result cache ($(b,server --cache)) can hit. \
                   0 (the default) is the historical unrepeated stream.")
  in
  let connections_arg =
    checked ~flag:"--connections" ~reason:"must be at least 1" (fun c -> c >= 1)
      Arg.(value & opt int 1
           & info [ "connections" ] ~docv:"N"
               ~doc:"Open $(docv) connections and interleave frames across \
                     them deterministically (seeded); prints one transcript \
                     CRC per connection. Plain mode only — not combinable \
                     with --failover-to, --chaos or --timeout-ms.")
  in
  let failover_arg =
    Arg.(value & opt (some string) None
         & info [ "failover-to" ] ~docv:"SOCK"
             ~doc:"Warm standby to promote (HANDOFF) and fail over to on \
                   the first primary transport failure; the failed frame is \
                   resent, keeping the transcript byte-identical to a \
                   failure-free run.")
  in
  let run connect wait_ms timeout_ms failover_to chaos metrics seed requests
      batch mix hot connections n out =
    let connect =
      match connect with
      | Some endpoint -> endpoint
      | None -> usage "--connect/--connect-tcp" "the server endpoint is required"
    in
    (* The plain path keeps blocking clients, byte-for-byte the old
       behavior; failover/chaos/timeout runs go through the failover
       endpoint. *)
    let plain = failover_to = None && chaos = None && timeout_ms = None in
    if connections > 1 && not plain then
      usage "--connections"
        "multi-connection mode is plain only (no --failover-to, --chaos or \
         --timeout-ms)";
    let oc =
      match out with None | Some "-" -> stdout | Some path -> open_out_or_die path
    in
    Fun.protect ~finally:(fun () -> if oc != stdout then close_out oc)
    @@ fun () ->
    let sink = metrics_sink ~render:Registry.render_table metrics in
    let obs = Option.map fst sink in
    let rpcs, close, failover =
      if plain then
        let cs =
          List.init connections (fun _ -> connect_client ~wait_ms connect)
        in
        ( Array.of_list (List.map (fun c req -> Client.request c req) cs),
          (fun () -> List.iter Client.close cs),
          None )
      else
        let f =
          Failover.create ?obs ~wait_ms ?timeout_ms
            ~fault:(Option.value chaos ~default:Fault.none)
            ?standby:failover_to connect
        in
        ([| Failover.rpc f |], (fun () -> Failover.close f), Some f)
    in
    Fun.protect ~finally:close @@ fun () ->
    let msummary =
      try
        ok_or_die
          (Loadgen.run_multi ?obs ~hot ~rpcs ~seed ~requests ~batch ~n ~mix
             ~out:(output_string oc) ())
      with Invalid_argument reason -> usage "loadgen" reason
    in
    let summary = msummary.Loadgen.totals in
    Printf.printf "loadgen: sent=%d replies=%d overloads=%d errors=%d crc=%s\n"
      summary.Loadgen.sent summary.Loadgen.replies summary.Loadgen.overloads
      summary.Loadgen.errors summary.Loadgen.transcript_crc;
    if connections > 1 then
      Array.iteri
        (fun i crc -> Printf.printf "loadgen: conn=%d crc=%s\n" i crc)
        msummary.Loadgen.connection_crcs;
    (match failover with
    | Some f when Failover.promoted f ->
        Printf.printf "loadgen: failed over to %s (seq %d)\n"
          (Failover.endpoint f) (Failover.seen_seq f)
    | _ -> ());
    Option.iter (fun (_, dump) -> dump "(loadgen)") sink
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a server with a seeded, reproducible workload.")
    Term.(const run
          $ endpoint_arg
              ~doc:"Unix-domain socket of the server under load (or \
                    $(b,tcp:HOST:PORT) for a TCP server)."
              ()
          $ wait_arg $ timeout_arg $ failover_arg
          (* Only transcript-preserving kinds may be armed client-side: a
             dropped or torn frame is resent whole, a delay moves no
             bytes. Corruption/blackholing belong on the server (`server
             --chaos`), where the injected failure is what the run
             measures. *)
          $ chaos_arg
              ~allowed:[ Fault.Conn_drop; Fault.Conn_truncate; Fault.Conn_delay ]
              ()
          $ metrics_arg
              ~doc:"Dump the client-side metrics table (loadgen.rtt.ms, and \
                    retry.* / client.failover.* when failing over) to \
                    $(docv) ($(b,-) for stdout) after the run."
          $ seed_arg $ requests_arg $ batch_arg $ mix_arg $ hot_arg
          $ connections_arg
          $ n_arg ~doc:"Size of the key domain the requests are drawn over."
          $ out_arg ~names:[ "out" ]
              ~doc:"Write the transcript to $(docv) ($(b,-), the default, \
                    for stdout).")

let main =
  let doc = "Deterministic wavelet thresholding for maximum-error metrics." in
  Cmd.group
    (Cmd.info "wavesyn" ~doc ~version:"1.0.0")
    [ generate_cmd; decompose_cmd; threshold_cmd; evaluate_cmd; compare_cmd;
      query_cmd; quantile_cmd; serve_cmd; recover_cmd; stats_cmd; server_cmd;
      loadgen_cmd ]

let () = exit (Cmd.eval main)
