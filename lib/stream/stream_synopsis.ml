module Haar1d = Wavesyn_haar.Haar1d
module Float_util = Wavesyn_util.Float_util
module Synopsis = Wavesyn_synopsis.Synopsis

type t = {
  n : int;
  coeffs : float array;
      (* every coefficient, indexed as in Haar1d; a cancelled one holds
         [0.], never [-0.] *)
  mutable updates : int;
  mutable observer : (int -> unit) option;
      (* called once per applied update with the path length (coefficient
         touches); [None] costs one branch on the update path *)
}

let create ~n =
  if not (Float_util.is_pow2 n) then
    invalid_arg "Stream_synopsis.create: n must be a power of two";
  { n; coeffs = Array.make n 0.; updates = 0; observer = None }

let set_observer t obs = t.observer <- obs

let n t = t.n
let updates_seen t = t.updates

let coefficient t j =
  if j < 0 || j >= t.n then
    invalid_arg "Stream_synopsis.coefficient: index out of range";
  Array.unsafe_get t.coeffs j

let[@inline] bump t j amount =
  let v = t.coeffs.(j) +. amount in
  t.coeffs.(j) <- (if v = 0. then 0. else v)

(* The path of cell [i], leaf upward: the parent of error-tree node
   [node] is [node / 2], its support is twice the child's, and the cell
   lies in its positive half exactly when the child is a left (even)
   child. The overall average c0 closes the path with support n. *)
let update t ~i ~delta =
  if i < 0 || i >= t.n then
    invalid_arg "Stream_synopsis.update: cell out of range";
  let node = ref (t.n + i) and support = ref 1 in
  while !node > 1 do
    let sign = if !node land 1 = 0 then 1. else -1. in
    node := !node lsr 1;
    support := 2 * !support;
    bump t !node (sign *. delta /. float_of_int !support)
  done;
  bump t 0 (delta /. float_of_int t.n);
  t.updates <- t.updates + 1;
  match t.observer with
  | None -> ()
  | Some f -> f (Float_util.log2i t.n + 1)

let of_data data =
  let t = create ~n:(Array.length data) in
  let w = Haar1d.decompose data in
  Array.iteri (fun j c -> if c <> 0. then t.coeffs.(j) <- c) w;
  t

let nonzero_count t =
  Array.fold_left (fun k c -> if c <> 0. then k + 1 else k) 0 t.coeffs

let coeffs t =
  let acc = ref [] in
  for j = t.n - 1 downto 0 do
    let c = t.coeffs.(j) in
    if c <> 0. then acc := (j, c) :: !acc
  done;
  !acc

let restore ~n ~updates coeffs =
  let t = create ~n in
  if updates < 0 then invalid_arg "Stream_synopsis.restore: negative updates";
  let seen = Bytes.make n '\000' in
  List.iter
    (fun (j, c) ->
      if j < 0 || j >= n then
        invalid_arg "Stream_synopsis.restore: coefficient index out of range";
      if Bytes.get seen j <> '\000' then
        invalid_arg "Stream_synopsis.restore: duplicate coefficient index";
      Bytes.set seen j '\001';
      if c <> 0. then t.coeffs.(j) <- c)
    coeffs;
  t.updates <- updates;
  t

let current_data t = Haar1d.reconstruct t.coeffs

let cut_l2 t ~budget =
  Wavesyn_baselines.Greedy_l2.threshold_wavelet ~wavelet:t.coeffs ~budget

let cut_minmax t ~budget metric =
  let data = current_data t in
  (Wavesyn_core.Minmax_dp.solve ~data ~budget metric).Wavesyn_core.Minmax_dp
    .synopsis
