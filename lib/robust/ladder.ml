let log_src = Logs.Src.create "wavesyn.ladder" ~doc:"Graceful-degradation ladder"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Minmax_dp = Wavesyn_core.Minmax_dp
module Approx_additive = Wavesyn_core.Approx_additive
module Greedy_maxerr = Wavesyn_baselines.Greedy_maxerr
module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry
module Trace = Wavesyn_obs.Trace

type tier =
  | Minmax
  | Approx_additive of { epsilon : float }
  | Greedy_maxerr

let tier_name = function
  | Minmax -> "minmax"
  | Approx_additive { epsilon } -> Printf.sprintf "approx(eps=%g)" epsilon
  | Greedy_maxerr -> "greedy-maxerr"

let top_of_pressure = function 0 -> `Minmax | 1 -> `Approx | _ -> `Greedy

let tier_of_top ~epsilon = function
  | `Minmax -> Minmax
  | `Approx -> Approx_additive { epsilon }
  | `Greedy -> Greedy_maxerr

type outcome =
  | Answered
  | Timed_out of Deadline.stats
  | Failed of string

let outcome_name = function
  | Answered -> "served"
  | Timed_out _ -> "deadline"
  | Failed _ -> "failed"

type attempt = { tier : tier; outcome : outcome; elapsed_ms : float }

(* Stable label values for the metrics contract (docs/OBSERVABILITY.md):
   unlike {!tier_name}, the approximation tier does not embed its ε, so
   the label set stays fixed. *)
let tier_label = function
  | Minmax -> "minmax"
  | Approx_additive _ -> "approx"
  | Greedy_maxerr -> "greedy"

(* Per-serve instruments, resolved against the registry once per call
   (idempotent lookups; the serve itself dwarfs them). *)
type instruments = {
  i_trace : Trace.sink option;
  serve_ms : Metric.histogram;
  serves : string -> Metric.counter;  (* tier label *)
  attempts : string -> string -> Metric.counter;  (* tier, outcome *)
  phase_ms : string -> Metric.histogram;  (* tier label *)
  dp_states : string -> Metric.counter;  (* solver label *)
}

let instruments ~trace reg =
  {
    i_trace = trace;
    serve_ms =
      Registry.histogram reg ~help:"end-to-end ladder serve latency"
        ~unit_:"ms" "ladder.serve.ms";
    serves =
      (fun tier ->
        Registry.counter reg ~help:"requests answered, by serving tier"
          ~unit_:"requests" ~labels:[ ("tier", tier) ] "ladder.serves");
    attempts =
      (fun tier outcome ->
        Registry.counter reg ~help:"tier attempts, by tier and outcome"
          ~unit_:"attempts"
          ~labels:[ ("tier", tier); ("outcome", outcome) ]
          "ladder.attempts");
    phase_ms =
      (fun tier ->
        Registry.histogram reg ~help:"duration of one solver phase"
          ~unit_:"ms" ~labels:[ ("tier", tier) ] "dp.phase.ms");
    dp_states =
      (fun solver ->
        Registry.counter reg
          ~help:"freshly computed DP states (on_state hook firings)"
          ~unit_:"states" ~labels:[ ("solver", solver) ] "dp.states");
  }

type served = {
  tier : tier;
  synopsis : Synopsis.t;
  max_err : float;
  attempts : attempt list;
  total_ms : float;
}

let describe_attempts attempts =
  attempts
  |> List.map (fun (a : attempt) ->
         Printf.sprintf "%s=%s" (tier_name a.tier) (outcome_name a.outcome))
  |> String.concat " "

(* Deadline fractions per bounded tier; the greedy floor runs
   unbounded. A minimum slice keeps a tiny total deadline from rounding
   a tier's slice down to an instant no-op before its first tick. *)
let slices = [ 0.5; 0.25; 0.125 ]
let min_slice_ms = 0.01

let serve ?obs ?trace ?deadline_ms ?(epsilon = 0.25)
    ?(top = `Minmax) ?(fault = Fault.none) ~data ~budget metric =
  let ( let* ) = Result.bind in
  let* data = Validate.data ~what:"Ladder.serve" ~require_pow2:true data in
  let* budget = Validate.budget budget in
  let* epsilon = Validate.epsilon epsilon in
  (* Instrumentation off (no registry) means no instrument lookups, no
     timer composition — the request runs the exact pre-observability
     code path. *)
  let inst =
    match obs with None -> None | Some reg -> Some (instruments ~trace reg)
  in
  let t0 = Deadline.now_ms () in
  let attempts = ref [] in
  (* [bounded = Some slice_ms] attaches a deadline; [None] (the greedy
     floor) runs to completion. Fault points fire only when [faulted]:
     the final fault-free greedy retry must not be corruptible. *)
  let attempt ?slice_ms ~faulted tier =
    let a0 = Deadline.now_ms () in
    let fin outcome =
      let elapsed_ms = Deadline.now_ms () -. a0 in
      let a = { tier; outcome; elapsed_ms } in
      attempts := a :: !attempts;
      (match inst with
      | None -> ()
      | Some i ->
          let label = tier_label tier in
          Metric.incr (i.attempts label (outcome_name outcome));
          Metric.observe (i.phase_ms label) elapsed_ms);
      a
    in
    let run_attempt () =
    try
      if faulted then Fault.pressure fault;
      let adata =
        if faulted && Fault.fires fault Fault.Nan_coefficient then
          Fault.corrupt_data fault data
        else data
      in
      (* No slice and no deadline fault: nothing can expire, so each DP
         state costs nothing here. *)
      let probe = if faulted then Fault.deadline_probe fault else None in
      let tick =
        match (slice_ms, probe) with
        | None, None -> None
        | _ ->
            let d = Deadline.create ?ms:slice_ms ?probe () in
            Some (fun () -> Deadline.tick d)
      in
      (* DP-state counting composes onto the existing [on_state] hook at
         this call site only; the solvers themselves are untouched and
         the uninstrumented hook is exactly the one above. *)
      let tick =
        match (inst, tier) with
        | None, _ | _, Greedy_maxerr -> tick
        | Some i, (Minmax | Approx_additive _) ->
            let solver =
              match tier with Minmax -> "minmax" | _ -> "approx-additive"
            in
            let c = i.dp_states solver in
            Some
              (match tick with
              | None -> fun () -> Metric.incr c
              | Some tick ->
                  fun () ->
                    Metric.incr c;
                    tick ())
      in
      let synopsis =
        match tier with
        | Minmax ->
            (Minmax_dp.solve ?on_state:tick ~data:adata ~budget metric)
              .Minmax_dp.synopsis
        | Approx_additive { epsilon } ->
            snd
              (Approx_additive.solve_1d ?on_state:tick ~data:adata ~budget
                 ~epsilon metric)
        | Greedy_maxerr -> Greedy_maxerr.threshold ~data:adata ~budget metric
      in
      (* Soundness gate: the guarantee we report is re-measured on the
         pristine data, whatever the (possibly corrupted) solver saw. *)
      let max_err = Metrics.of_synopsis metric ~data synopsis in
      if Float.is_finite max_err && Synopsis.size synopsis <= budget then begin
        ignore (fin Answered);
        Some (synopsis, max_err)
      end
      else begin
        ignore
          (fin
             (Failed "unsound answer (non-finite guarantee or over budget)"));
        None
      end
    with
    | Deadline.Deadline_exceeded st ->
        ignore (fin (Timed_out st));
        None
    | Fault.Injected k ->
        ignore (fin (Failed ("injected " ^ Fault.kind_name k)));
        None
    | e ->
        ignore (fin (Failed (Printexc.to_string e)));
        None
    in
    match inst with
    | Some { i_trace = Some sink; _ } ->
        Trace.with_span sink ("tier:" ^ tier_label tier) run_attempt
    | _ -> run_attempt ()
  in
  let finish tier (synopsis, max_err) =
    let attempts = List.rev !attempts in
    Log.debug (fun m ->
        m "served tier=%s max_err=%g attempts=[%s]" (tier_name tier) max_err
          (describe_attempts attempts));
    let total_ms = Deadline.now_ms () -. t0 in
    (match inst with
    | None -> ()
    | Some i ->
        Metric.incr (i.serves (tier_label tier));
        Metric.observe i.serve_ms total_ms);
    Ok { tier; synopsis; max_err; attempts; total_ms }
  in
  let slice_of frac =
    Option.map (fun ms -> Float.max min_slice_ms (ms *. frac)) deadline_ms
  in
  let bounded_tiers =
    List.combine
      [
        Minmax;
        Approx_additive { epsilon };
        Approx_additive { epsilon = Float.min 1.0 (2. *. epsilon) };
      ]
      slices
  in
  (* An overloaded caller can enter the ladder below the top: the
     skipped tiers are simply not attempted (no Timed_out records),
     everything below runs exactly as a full serve would. *)
  let bounded_tiers =
    match top with
    | `Minmax -> bounded_tiers
    | `Approx ->
        List.filter (fun (t, _) -> t <> Minmax) bounded_tiers
    | `Greedy -> []
  in
  let rec go = function
    | (tier, frac) :: rest -> (
        match attempt ?slice_ms:(slice_of frac) ~faulted:true tier with
        | Some answer -> finish tier answer
        | None -> go rest)
    | [] -> (
        match attempt ~faulted:true Greedy_maxerr with
        | Some answer -> finish Greedy_maxerr answer
        | None -> (
            (* Floor of the ladder: fault-free, unbounded. For finite
               validated input the greedy heuristic cannot fail. *)
            match attempt ~faulted:false Greedy_maxerr with
            | Some answer -> finish Greedy_maxerr answer
            | None ->
                Error
                  (Validate.Bad_shape
                     { what = "ladder"; reason = "all tiers failed" })))
  in
  go bounded_tiers
