module Ndarray = Wavesyn_util.Ndarray
module Float_util = Wavesyn_util.Float_util

type t = {
  data : Ndarray.t;
  wavelet : Ndarray.t;
  ndim : int;
  side : int;
  levels : int;
}

type node = Root | Cube of { level : int; q : int array }
type children = Nodes of node list | Cells of int array list

let of_parts ~data ~wavelet =
  let n = Haar_md.side data in
  if Ndarray.dims data <> Ndarray.dims wavelet then
    invalid_arg "Md_tree: data / wavelet shape mismatch";
  {
    data;
    wavelet;
    ndim = Ndarray.ndim data;
    side = n;
    levels = Float_util.log2i n;
  }

let of_data data = of_parts ~data ~wavelet:(Haar_md.decompose data)

let data t = t.data
let wavelet t = t.wavelet
let ndim t = t.ndim
let side t = t.side
let levels t = t.levels

let check_cube t level q =
  if level < 0 || level >= t.levels then
    invalid_arg "Md_tree: cube level out of range";
  if Array.length q <> t.ndim then invalid_arg "Md_tree: cube rank mismatch";
  Array.iter
    (fun x ->
      if x < 0 || x >= 1 lsl level then
        invalid_arg "Md_tree: cube coordinate out of range")
    q

let quadrant ~d ~rank base =
  Array.init d (fun i -> (2 * base.(i)) + ((rank lsr i) land 1))

let children t node =
  match node with
  | Root ->
      if t.levels = 0 then Cells [ Array.make t.ndim 0 ]
      else Nodes [ Cube { level = 0; q = Array.make t.ndim 0 } ]
  | Cube { level; q } ->
      check_cube t level q;
      let d = t.ndim in
      let ranks = List.init (1 lsl d) Fun.id in
      if level + 1 < t.levels then
        Nodes
          (List.map
             (fun r -> Cube { level = level + 1; q = quadrant ~d ~rank:r q })
             ranks)
      else
        Cells (List.map (fun r -> quadrant ~d ~rank:r q) ranks)

let node_coeffs t node =
  match node with
  | Root -> [| (0, Ndarray.get_flat t.wavelet 0) |]
  | Cube { level; q } ->
      check_cube t level q;
      let d = t.ndim in
      let s = 1 lsl level in
      Array.init ((1 lsl d) - 1) (fun k ->
          let mask = k + 1 in
          let pos =
            Array.init d (fun i ->
                q.(i) + if mask land (1 lsl i) <> 0 then s else 0)
          in
          let flat = Ndarray.flat_of_index t.wavelet pos in
          (flat, Ndarray.get_flat t.wavelet flat))

let sign_to_child t node ~coeff_flat ~child_rank =
  match node with
  | Root -> 1
  | Cube { level; q } ->
      check_cube t level q;
      let d = t.ndim in
      let s = 1 lsl level in
      let pos = Ndarray.index_of_flat t.wavelet coeff_flat in
      let sign = ref 1 in
      for i = 0 to d - 1 do
        let detail = pos.(i) >= s in
        if detail && (child_rank lsr i) land 1 = 1 then sign := - !sign;
        if (detail && pos.(i) - s <> q.(i)) || ((not detail) && pos.(i) <> q.(i))
        then invalid_arg "Md_tree.sign_to_child: coefficient not in node"
      done;
      !sign

let cell_ranges t node =
  match node with
  | Root -> Array.make t.ndim (0, t.side)
  | Cube { level; q } ->
      check_cube t level q;
      let width = t.side / (1 lsl level) in
      Array.map (fun x -> (x * width, (x * width) + width)) q

let node_count t =
  let d = t.ndim in
  let rec go acc l =
    if l >= t.levels then acc else go (acc + (1 lsl (d * l))) (l + 1)
  in
  1 + go 0 0

let all_coeffs t =
  let acc = ref [] in
  let n = Ndarray.size t.wavelet in
  for flat = n - 1 downto 0 do
    acc := (flat, Ndarray.get_flat t.wavelet flat) :: !acc
  done;
  !acc

let nonzero_coeffs t = List.filter (fun (_, c) -> c <> 0.) (all_coeffs t)

let point_from_set t set cell =
  List.fold_left
    (fun acc (flat, c) ->
      let pos = Ndarray.index_of_flat t.wavelet flat in
      acc +. (float_of_int (Haar_md.sign_at t.wavelet ~coeff:pos ~cell) *. c))
    0. set

let max_abs_coeff t = Ndarray.max_abs t.wavelet

let fold_cells t f acc =
  let acc = ref acc in
  Ndarray.iteri (fun idx v -> acc := f !acc idx v) t.data;
  !acc
