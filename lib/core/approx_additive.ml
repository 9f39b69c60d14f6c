module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics

type result = {
  bound : float;
  synopsis : Synopsis.Md.md;
  measured : float;
  dp_states : int;
}

let path_bound tree =
  (* Maximum number of levels contributing coefficients on any
     root-to-leaf path, times the coefficients per node. *)
  let d = Md_tree.ndim tree in
  let levels = Md_tree.levels tree in
  float_of_int (((1 lsl d) - 1) * levels + 1)

let guarantee_bound ~tree ~epsilon metric =
  let r = Md_tree.max_abs_coeff tree in
  let raw = epsilon *. r *. 2. *. path_bound tree in
  match metric with
  | Metrics.Abs -> raw
  | Metrics.Rel { sanity } -> raw /. sanity

let theorem_epsilon ~tree eps =
  let d = Md_tree.ndim tree in
  let total = float_of_int (Ndarray.size (Md_tree.data tree)) in
  let logn = Float.max 1. (Float.log total /. Float.log 2.) in
  eps /. (float_of_int (1 lsl d) *. logn)

(* Rounding to breakpoints {0} ∪ {±(1+ε)^k, kmin <= k <= kmax}.
   Positive values round their magnitude down, negative values round it
   up, exactly as in the paper's round_ε. *)
type rounding = {
  round : float -> float;
  key : float -> int;
}

let make_rounding ~epsilon ~vmin ~vmax =
  let log_base = Float.log (1. +. epsilon) in
  let kmin = int_of_float (Float.floor (Float.log vmin /. log_base)) in
  let kmax = int_of_float (Float.ceil (Float.log vmax /. log_base)) + 1 in
  let bp k = Float.exp (float_of_int k *. log_base) in
  let exponent v = Float.log (Float.abs v) /. log_base in
  let clamp k = Stdlib.max kmin (Stdlib.min kmax k) in
  let round v =
    if Float.abs v < vmin then 0.
    else begin
      let l = exponent v in
      if v > 0. then bp (clamp (int_of_float (Float.floor (l +. 1e-12))))
      else -.bp (clamp (int_of_float (Float.ceil (l -. 1e-12))))
    end
  in
  let key v =
    if v = 0. then 0
    else begin
      let k = clamp (int_of_float (Float.round (exponent v))) in
      let shifted = k - kmin + 1 in
      if v > 0. then 2 * shifted else (2 * shifted) + 1
    end
  in
  { round; key }

let config ~tree ~epsilon metric =
  if epsilon <= 0. || epsilon > 1. then
    invalid_arg "Approx_additive: epsilon must be in (0, 1]";
  let r = Md_tree.max_abs_coeff tree in
  if r = 0. then None
  else begin
    let data = Md_tree.data tree in
    let span = path_bound tree in
    let vmax = 2. *. r *. span in
    let vmin = epsilon *. r /. (span *. 8.) in
    let rounding = make_rounding ~epsilon ~vmin ~vmax in
    let wavelet = Md_tree.wavelet tree in
    Some
      {
        Md_dp.coeff_value = (fun pos -> Ndarray.get_flat wavelet pos);
        round_error = rounding.round;
        key_of_error = rounding.key;
        forced = (fun _ -> false);
        leaf_denominator =
          (fun cell -> Metrics.denominator metric (Ndarray.get data cell));
      }
  end

let result_of ~tree metric outcome =
  let data = Md_tree.data tree in
  let dims = Ndarray.dims data in
  let wavelet = Md_tree.wavelet tree in
  let bound, retained, dp_states =
    match outcome with
    | None -> (0., [], 0)
    | Some { Md_dp.value; retained; dp_states } -> (value, retained, dp_states)
  in
  let coeffs =
    List.map (fun pos -> (pos, Ndarray.get_flat wavelet pos)) retained
  in
  let synopsis = Synopsis.Md.make ~dims coeffs in
  let measured = Metrics.of_md_synopsis metric ~data synopsis in
  { bound; synopsis; measured; dp_states }

let solve_tree ?on_state ~tree ~budget ~epsilon metric =
  config ~tree ~epsilon metric
  |> Option.map (fun cfg ->
         match Md_dp.run ?on_state (Md_dp.skeleton ~tree) ~budget cfg with
         | Some outcome -> outcome
         | None -> assert false (* nothing is forced, so always feasible *))
  |> result_of ~tree metric

let solve ?on_state ~data ~budget ~epsilon metric =
  solve_tree ?on_state ~tree:(Md_tree.of_data data) ~budget ~epsilon metric

let solve_1d ?on_state ~data ~budget ~epsilon metric =
  let nd = Ndarray.of_flat_array ~dims:[| Array.length data |] data in
  let r = solve ?on_state ~data:nd ~budget ~epsilon metric in
  (* D = 1 flat wavelet positions coincide with Haar1d indices. *)
  let syn =
    Synopsis.make ~n:(Array.length data) (Synopsis.Md.coeffs r.synopsis)
  in
  (r.measured, syn)
