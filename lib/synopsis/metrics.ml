module Ndarray = Wavesyn_util.Ndarray

type error_metric = Abs | Rel of { sanity : float }

let check_metric = function
  | Abs -> ()
  | Rel { sanity } ->
      if sanity <= 0. then
        invalid_arg "Metrics: sanity bound must be positive"

let denominator metric d =
  check_metric metric;
  match metric with
  | Abs -> 1.
  | Rel { sanity } -> Float.max (Float.abs d) sanity

let per_point metric ~data ~approx =
  check_metric metric;
  if Array.length data <> Array.length approx then
    invalid_arg "Metrics: data / approximation length mismatch";
  Array.mapi
    (fun i d -> Float.abs (d -. approx.(i)) /. denominator metric d)
    data

let max_error metric ~data ~approx =
  Wavesyn_util.Float_util.max_abs (per_point metric ~data ~approx)

let max_error_md metric ~data ~approx =
  max_error metric ~data:(Ndarray.to_flat_array data)
    ~approx:(Ndarray.to_flat_array approx)

let of_synopsis metric ~data syn =
  if Array.length data <> Synopsis.n syn then
    invalid_arg "Metrics.of_synopsis: domain size mismatch";
  max_error metric ~data ~approx:(Synopsis.reconstruct syn)

let of_md_synopsis metric ~data syn =
  max_error_md metric ~data ~approx:(Synopsis.Md.reconstruct syn)

type summary = {
  max_abs : float;
  max_rel : float;
  mean_abs : float;
  mean_rel : float;
  rms : float;
  argmax_abs : int;
  argmax_rel : int;
}

let summary ?(sanity = 1.0) ~data ~approx () =
  let abs = per_point Abs ~data ~approx in
  let rel = per_point (Rel { sanity }) ~data ~approx in
  let argmax a =
    let best = ref 0 in
    Array.iteri (fun i x -> if x > a.(!best) then best := i) a;
    !best
  in
  let sq = Array.map (fun x -> x *. x) abs in
  {
    max_abs = Wavesyn_util.Float_util.max_abs abs;
    max_rel = Wavesyn_util.Float_util.max_abs rel;
    mean_abs = Wavesyn_util.Stats.mean abs;
    mean_rel = Wavesyn_util.Stats.mean rel;
    rms = Float.sqrt (Wavesyn_util.Stats.mean sq);
    argmax_abs = argmax abs;
    argmax_rel = argmax rel;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "max_abs=%.6g max_rel=%.6g mean_abs=%.6g mean_rel=%.6g rms=%.6g"
    s.max_abs s.max_rel s.mean_abs s.mean_rel s.rms
