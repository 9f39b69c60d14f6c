module Haar1d = Wavesyn_haar.Haar1d
module Haar_md = Wavesyn_haar.Haar_md
module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Float_util = Wavesyn_util.Float_util

type supports = {
  value : float array;
  start : int array;
  mid : int array;
  stop : int array;
}

type t = { n : int; coeffs : (int * float) list; supports : supports }

(* Each retained coefficient's value and Haar support, hoisted out of
   the range-sum loop: computed once here instead of once per query.
   The average c0 gets [0, n) with its midpoint at n, so the detail
   formula gives it exactly [c * width]. *)
let supports_of ~n coeffs =
  let k = List.length coeffs in
  let s =
    {
      value = Array.make k 0.;
      start = Array.make k 0;
      mid = Array.make k 0;
      stop = Array.make k 0;
    }
  in
  List.iteri
    (fun t (j, c) ->
      let a, b = Haar1d.support ~n j in
      s.value.(t) <- c;
      s.start.(t) <- a;
      s.mid.(t) <- (if j = 0 then b else (a + b) / 2);
      s.stop.(t) <- b)
    coeffs;
  s

let make ~n coeffs =
  if not (Float_util.is_pow2 n) then
    invalid_arg "Synopsis.make: domain size must be a power of two";
  let coeffs = List.filter (fun (_, c) -> c <> 0.) coeffs in
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= n then
        invalid_arg "Synopsis.make: coefficient index out of range")
    coeffs;
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) coeffs in
  let rec check_dups = function
    | (i, _) :: ((j, _) :: _ as rest) ->
        if i = j then invalid_arg "Synopsis.make: duplicate coefficient index";
        check_dups rest
    | _ -> ()
  in
  check_dups sorted;
  { n; coeffs = sorted; supports = supports_of ~n sorted }

let of_wavelet ~wavelet indices =
  let n = Array.length wavelet in
  make ~n (List.map (fun i -> (i, wavelet.(i))) indices)

let n t = t.n
let size t = List.length t.coeffs
let coeffs t = t.coeffs
let supports t = t.supports
let mem t i = List.exists (fun (j, _) -> j = i) t.coeffs

let reconstruct_point t i = Haar1d.point_from_set ~n:t.n t.coeffs i

let reconstruct t =
  let w = Array.make t.n 0. in
  List.iter (fun (i, c) -> w.(i) <- c) t.coeffs;
  Haar1d.reconstruct w

let level_histogram t =
  (* Levels run 0 .. log2 n - 1 (c_0 and c_1 share level 0); a
     singleton domain has the single level 0. *)
  let hist = Array.make (Stdlib.max 1 (Float_util.log2i t.n)) 0 in
  List.iter
    (fun (i, _) ->
      let l = Haar1d.level_of ~n:t.n i in
      hist.(l) <- hist.(l) + 1)
    t.coeffs;
  hist

let describe t =
  "{"
  ^ String.concat "; "
      (List.map (fun (i, c) -> Printf.sprintf "c%d=%g" i c) t.coeffs)
  ^ "}"

let to_string t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int t.n);
  List.iter
    (fun (i, c) -> Buffer.add_string buf (Printf.sprintf " %d:%h" i c))
    t.coeffs;
  Buffer.contents buf

let of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [] -> failwith "Synopsis.of_string: empty input"
  | n_str :: rest ->
      let n =
        try int_of_string n_str
        with Failure _ -> failwith "Synopsis.of_string: bad domain size"
      in
      let parse_pair p =
        match String.split_on_char ':' p with
        | [ i; c ] -> (
            try (int_of_string i, float_of_string c)
            with Failure _ -> failwith "Synopsis.of_string: bad coefficient")
        | _ -> failwith "Synopsis.of_string: bad coefficient"
      in
      make ~n (List.map parse_pair rest)

module Md = struct
  type md = { dims : int array; coeffs : (int * float) list; total : int }

  let make ~dims coeffs =
    let probe = Ndarray.create ~dims 0. in
    ignore (Haar_md.side probe);
    let total = Ndarray.size probe in
    let coeffs = List.filter (fun (_, c) -> c <> 0.) coeffs in
    List.iter
      (fun (i, _) ->
        if i < 0 || i >= total then
          invalid_arg "Synopsis.Md.make: coefficient position out of range")
      coeffs;
    let sorted = List.sort (fun (i, _) (j, _) -> compare i j) coeffs in
    let rec check_dups = function
      | (i, _) :: ((j, _) :: _ as rest) ->
          if i = j then
            invalid_arg "Synopsis.Md.make: duplicate coefficient position";
          check_dups rest
      | _ -> ()
    in
    check_dups sorted;
    { dims = Array.copy dims; coeffs = sorted; total }

  let of_tree tree coeffs =
    make ~dims:(Ndarray.dims (Md_tree.data tree)) coeffs

  let dims t = Array.copy t.dims
  let size t = List.length t.coeffs
  let coeffs t = t.coeffs

  let sparse_wavelet t =
    let w = Ndarray.create ~dims:t.dims 0. in
    List.iter (fun (i, c) -> Ndarray.set_flat w i c) t.coeffs;
    w

  let reconstruct_cell t cell =
    let w = Ndarray.create ~dims:t.dims 0. in
    List.fold_left
      (fun acc (flat, c) ->
        let coeff = Ndarray.index_of_flat w flat in
        acc +. (float_of_int (Haar_md.sign_at w ~coeff ~cell) *. c))
      0. t.coeffs

  let reconstruct t = Haar_md.reconstruct (sparse_wavelet t)
end
