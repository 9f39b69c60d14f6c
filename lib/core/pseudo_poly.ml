module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics

type result = {
  max_err : float;
  synopsis : Synopsis.Md.md;
  dp_states : int;
}

let solve_scaled ~tree ~budget ~scale metric =
  if scale <= 0. then invalid_arg "Pseudo_poly: scale must be positive";
  let data = Md_tree.data tree in
  let dims = Ndarray.dims data in
  let wavelet = Md_tree.wavelet tree in
  let scaled pos =
    let v = Ndarray.get_flat wavelet pos *. scale in
    let r = Float.round v in
    if Float.abs (v -. r) > 1e-6 then
      invalid_arg "Pseudo_poly: scaled coefficient is not integral";
    r
  in
  let cfg =
    {
      Md_dp.coeff_value = scaled;
      round_error = Fun.id;
      key_of_error = (fun e -> int_of_float e);
      forced = (fun _ -> false);
      leaf_denominator =
        (fun cell ->
          (* Denominators stay in original units; dividing the scaled
             value by [scale] afterwards restores original units. *)
          Metrics.denominator metric (Ndarray.get data cell));
    }
  in
  match Md_dp.run (Md_dp.skeleton ~tree) ~budget cfg with
  | None -> assert false (* no forced coefficients *)
  | Some { Md_dp.value; retained; dp_states } ->
      let coeffs =
        List.map (fun pos -> (pos, Ndarray.get_flat wavelet pos)) retained
      in
      {
        max_err = value /. scale;
        synopsis = Synopsis.Md.make ~dims coeffs;
        dp_states;
      }

let solve_int_data ~data ~budget metric =
  let tree = Md_tree.of_data data in
  solve_scaled ~tree ~budget ~scale:(float_of_int (Ndarray.size data)) metric

let solve_1d ~data ~budget metric =
  let n = Array.length data in
  let nd = Ndarray.of_flat_array ~dims:[| n |] data in
  let r = solve_int_data ~data:nd ~budget metric in
  (r.max_err, Synopsis.make ~n (Synopsis.Md.coeffs r.synopsis))
