module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Pool = Wavesyn_par.Pool

type result = {
  max_err : float;
  synopsis : Synopsis.Md.md;
  tau : float;
  dp_states : int;
  sweeps : int;
}

let theorem_epsilon eps = eps /. 4.

(* The DP keys truncated errors with [int_of_float], whose behaviour is
   unspecified beyond the native int range. Coefficients scale to
   [c / K_tau], so a τ whose scaled magnitude can reach 2^62 would
   produce garbage keys (and, for denormal K_tau, infinite or NaN
   values); such τ candidates are skipped instead of run. *)
let key_guard = Float.ldexp 1. 62

(* τ sweep: powers of two covering [smallest non-zero |c|, R]. The
   proof only needs some τ' in [C, 2C) for C the largest coefficient
   dropped by the optimum, and C is one of the |c| values. *)
let tau_candidates ~wavelet =
  let r = Ndarray.max_abs wavelet in
  if r = 0. then []
  else begin
    let cmin = ref r in
    for i = 0 to Ndarray.size wavelet - 1 do
      let a = Float.abs (Ndarray.get_flat wavelet i) in
      if a > 0. && a < !cmin then cmin := a
    done;
    let kmin = int_of_float (Float.floor (Float.log !cmin /. Float.log 2.)) in
    let kmax = int_of_float (Float.ceil (Float.log r /. Float.log 2.)) in
    let kmin = Stdlib.max kmin (kmax - 60) in
    List.init (kmax - kmin + 1) (fun i -> Float.pow 2. (float_of_int (kmin + i)))
  end

type candidate = { tau : float; config : Md_dp.config }

let candidates ~tree ~budget ~epsilon =
  if budget < 0 then invalid_arg "Approx_abs: negative budget";
  if epsilon <= 0. || epsilon > 1. then
    invalid_arg "Approx_abs: epsilon must be in (0, 1]";
  let wavelet = Md_tree.wavelet tree in
  let r = Ndarray.max_abs wavelet in
  let d = Md_tree.ndim tree in
  let total = Ndarray.size (Md_tree.data tree) in
  let logn = Float.max 1. (Float.log (float_of_int total) /. Float.log 2.) in
  (* The wavelet values and their magnitudes are τ-independent: every
     candidate's config reads these two arrays, immutable from here on,
     so pooled candidates share them. *)
  let ncoeffs = Ndarray.size wavelet in
  let vals = Array.init ncoeffs (Ndarray.get_flat wavelet) in
  let mags = Array.map Float.abs vals in
  (* A τ whose forced set exceeds the budget, or whose scaled range
     cannot be keyed exactly, is skipped, not run. *)
  let candidate tau =
    let forced_count = ref 0 in
    for i = 0 to ncoeffs - 1 do
      if mags.(i) > tau then incr forced_count
    done;
    let k_tau = epsilon *. tau /. (float_of_int (1 lsl d) *. logn) in
    let max_scaled = r /. k_tau in
    if
      !forced_count > budget
      || (not (Float.is_finite max_scaled))
      || max_scaled >= key_guard
    then None
    else
      Some
        {
          tau;
          config =
            {
              Md_dp.coeff_value = (fun pos -> Float.floor (vals.(pos) /. k_tau));
              round_error = Fun.id;
              key_of_error = (fun e -> int_of_float e);
              forced = (fun pos -> mags.(pos) > tau);
              leaf_denominator = (fun _ -> 1.);
            };
        }
  in
  Array.of_list (List.filter_map candidate (tau_candidates ~wavelet))

let merge ~tree outcomes =
  let data = Md_tree.data tree in
  let dims = Ndarray.dims data in
  let wavelet = Md_tree.wavelet tree in
  let evaluate coeffs =
    let synopsis = Synopsis.Md.make ~dims coeffs in
    (Metrics.of_md_synopsis Metrics.Abs ~data synopsis, synopsis)
  in
  (* Each candidate synopsis is measured with its true error. Ascending
     τ with a strict '<': the first best wins. The empty synopsis is
     always feasible and seeds the fold. *)
  let best_err, best_syn = evaluate [] in
  let best = ref (best_err, best_syn, Float.infinity) in
  let states = ref 0 and sweeps = ref 0 in
  Array.iter
    (function
      | _, None -> ()
      | { tau; _ }, Some { Md_dp.retained; dp_states; _ } ->
          incr sweeps;
          states := !states + dp_states;
          let err, syn =
            evaluate
              (List.map (fun pos -> (pos, Ndarray.get_flat wavelet pos)) retained)
          in
          let cur_err, _, _ = !best in
          if err < cur_err then best := (err, syn, tau))
    outcomes;
  let max_err, synopsis, tau = !best in
  { max_err; synopsis; tau; dp_states = !states; sweeps = !sweeps }

let solve_tree ?pool ~tree ~budget ~epsilon () =
  let candidates = candidates ~tree ~budget ~epsilon in
  (* One DP skeleton of the shared tree serves every candidate and pool
     domain (see Md_dp.skeleton). Each run only reads it, so candidates
     can run on any domain. *)
  let sk = Md_dp.skeleton ~tree in
  let run c = (c, Md_dp.run sk ~budget c.config) in
  let outcomes =
    match pool with
    | Some p when Array.length candidates > 1 ->
        let items = Array.length candidates in
        let grain = Pool.default_grain ~items ~domains:(Pool.domains p) in
        Pool.map_chunked ~grain p items (fun i -> run candidates.(i))
    | _ -> Array.map run candidates
  in
  merge ~tree outcomes

let solve ?pool ~data ~budget ~epsilon () =
  solve_tree ?pool ~tree:(Md_tree.of_data data) ~budget ~epsilon ()

let solve_1d ?pool ~data ~budget ~epsilon () =
  let n = Array.length data in
  let nd = Ndarray.of_flat_array ~dims:[| n |] data in
  let r = solve ?pool ~data:nd ~budget ~epsilon () in
  (r.max_err, Synopsis.make ~n (Synopsis.Md.coeffs r.synopsis))
