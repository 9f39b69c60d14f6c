module Prng = Wavesyn_util.Prng
module Stats = Wavesyn_util.Stats

type query =
  | Point of int
  | Range_sum of int * int
  | Selectivity of int * int
  | Quantile of float

type mix = { points : int; ranges : int; selectivities : int; quantiles : int }

let default_mix = { points = 25; ranges = 25; selectivities = 25; quantiles = 25 }

let mix_total m = m.points + m.ranges + m.selectivities + m.quantiles

let mix_to_string m =
  Printf.sprintf "points=%d,ranges=%d,selectivities=%d,quantiles=%d" m.points
    m.ranges m.selectivities m.quantiles

(* Generic "kind=weight,kind=weight" splitter, shared with the server's
   load-generator parser so both speak the same spec language (and
   produce the same error strings for the same malformations). *)
let parse_weights s =
  let parse_entry acc entry =
    Result.bind acc @@ fun kvs ->
    match String.split_on_char '=' (String.trim entry) with
    | [ key; v ] -> (
        match int_of_string_opt v with
        | Some w when w >= 0 -> Ok ((key, w) :: kvs)
        | _ -> Error (Printf.sprintf "bad mix weight %S" v))
    | _ -> Error (Printf.sprintf "bad mix entry %S (want kind=weight)" entry)
  in
  Result.map List.rev
    (List.fold_left parse_entry (Ok []) (String.split_on_char ',' s))

let mix_of_string s =
  let apply acc (key, w) =
    Result.bind acc @@ fun m ->
    match key with
    | "points" -> Ok { m with points = w }
    | "ranges" -> Ok { m with ranges = w }
    | "selectivities" -> Ok { m with selectivities = w }
    | "quantiles" -> Ok { m with quantiles = w }
    | _ ->
        Error
          (Printf.sprintf
             "unknown mix kind %S (want points/ranges/selectivities/quantiles)"
             key)
  in
  let zero = { points = 0; ranges = 0; selectivities = 0; quantiles = 0 } in
  match
    Result.bind (parse_weights s) (fun kvs ->
        List.fold_left apply (Ok zero) kvs)
  with
  | Error _ as e -> e
  | Ok m when mix_total m = 0 -> Error "mix has no positive weight"
  | Ok m -> Ok m

(* Single-query draws: the canonical parameter distributions of each
   kind, shared by {!generate} and the server's load generator so an
   A/B run exercises exactly the distribution the serving profiler
   observes. Each draw consumes a fixed number of Prng values. *)
let draw_point rng ~n = Point (Prng.int rng n)

let draw_bounds rng ~n =
  let lo = Prng.int rng n in
  let hi = lo + Prng.int rng (n - lo) in
  (lo, hi)

let draw_range rng ~n =
  let lo, hi = draw_bounds rng ~n in
  Range_sum (lo, hi)

let draw_selectivity rng ~n =
  let lo, hi = draw_bounds rng ~n in
  Selectivity (lo, hi)

let draw_quantile rng = Quantile (Prng.float rng 1.0)

let generate ~rng ~n ?(mix = default_mix) () =
  let qs =
    List.concat
      [
        List.init mix.points (fun _ -> draw_point rng ~n);
        List.init mix.ranges (fun _ -> draw_range rng ~n);
        List.init mix.selectivities (fun _ -> draw_selectivity rng ~n);
        (* The accuracy workload avoids the degenerate tails where the
           quantile position is pinned to a domain edge; serving
           traffic ({!draw_quantile}) spans the full [0, 1). *)
        List.init mix.quantiles (fun _ ->
            Quantile (0.05 +. Prng.float rng 0.9));
      ]
  in
  let arr = Array.of_list qs in
  Prng.shuffle rng arr;
  Array.to_list arr

type kind_report = {
  kind : string;
  count : int;
  mean_rel_err : float;
  max_rel_err : float;
}

let run engine queries =
  let relation = Engine.relation engine in
  let data = Relation.frequencies relation in
  let n = Array.length data in
  let buckets : (string, float list ref) Hashtbl.t = Hashtbl.create 4 in
  let record kind err =
    match Hashtbl.find_opt buckets kind with
    | Some l -> l := err :: !l
    | None -> Hashtbl.replace buckets kind (ref [ err ])
  in
  List.iter
    (fun q ->
      match q with
      | Point i -> record "point" (Engine.point engine i).Engine.rel_err
      | Range_sum (lo, hi) ->
          record "range-sum" (Engine.range_sum engine ~lo ~hi).Engine.rel_err
      | Selectivity (lo, hi) ->
          record "selectivity" (Engine.selectivity engine ~lo ~hi).Engine.rel_err
      | Quantile q ->
          let est = Quantiles.estimate (Engine.synopsis engine) ~q in
          let exact = Quantiles.exact data ~q in
          record "quantile"
            (float_of_int (abs (est - exact)) /. float_of_int n))
    queries;
  Hashtbl.fold
    (fun kind errs acc ->
      let a = Array.of_list !errs in
      {
        kind;
        count = Array.length a;
        mean_rel_err = Stats.mean a;
        max_rel_err = Wavesyn_util.Float_util.max_abs a;
      }
      :: acc)
    buckets []
  |> List.sort (fun a b -> compare a.kind b.kind)
