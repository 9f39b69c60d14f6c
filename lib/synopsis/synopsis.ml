module Haar1d = Wavesyn_haar.Haar1d
module Haar_md = Wavesyn_haar.Haar_md
module Md_tree = Wavesyn_haar.Md_tree
module Ndarray = Wavesyn_util.Ndarray
module Float_util = Wavesyn_util.Float_util

type supports = {
  index : int array;
  value : float array;
  start : int array;
  mid : int array;
  stop : int array;
  level : int array;
  rank : int array;
}

type t = { n : int; coeffs : (int * float) list; supports : supports }

let rec fill s ~n t = function
  | [] -> ()
  | (j, c) :: rest ->
      s.index.(t) <- j;
      s.value.(t) <- c;
      (* [Haar1d.support] without its tuple: detail [j] at level [l]
         spans [n / 2^l] cells from [(j - 2^l) * n / 2^l]. *)
      if j = 0 then begin
        s.mid.(t) <- n;
        s.stop.(t) <- n
      end
      else begin
        let l = Float_util.floor_log2 j in
        let width = n lsr l in
        let a = (j - (1 lsl l)) * width in
        s.start.(t) <- a;
        s.mid.(t) <- a + (width / 2);
        s.stop.(t) <- a + width
      end;
      fill s ~n (t + 1) rest

let[@inline] popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  ((x * 0x01010101) lsr 24) land 0xff

(* Block [b] of [rank] covers indices [32b .. 32b + 31]: its low 32
   bits mark the retained ones, the 30 bits above them in a 63-bit
   int count the retained indices below [32b] (B < 2^30 keeps them
   exact: six B-entry arrays would take 48 GiB first). A retained
   index's slot is that count plus the marked bits below its own. *)
let[@inline] slot s j =
  let w = s.rank.(j lsr 5) and bit = 1 lsl (j land 31) in
  if w land bit = 0 then -1 else (w lsr 32) + popcount32 (w land (bit - 1))

(* Each retained coefficient's value and Haar support, hoisted out of
   the evaluation walks: computed once here instead of once per query.
   The average c0 gets [0, n) with its midpoint at n, so the detail
   formula gives it exactly [c * width]. [level.(l)] is the first slot
   whose index is at least [2^l], so detail level [l] (indices
   [2^l .. 2^(l+1) - 1]) holds slots [level.(l) .. level.(l+1) - 1]. *)
let supports_of ~n coeffs =
  let k = List.length coeffs in
  let s =
    {
      index = Array.make k 0;
      value = Array.make k 0.;
      start = Array.make k 0;
      mid = Array.make k 0;
      stop = Array.make k 0;
      level = Array.make (Float_util.log2i n + 1) k;
      rank = Array.make ((n + 31) / 32) 0;
    }
  in
  fill s ~n 0 coeffs;
  for l = Array.length s.level - 2 downto 0 do
    let first = ref s.level.(l + 1) in
    while !first > 0 && s.index.(!first - 1) >= 1 lsl l do
      decr first
    done;
    s.level.(l) <- !first
  done;
  let rank = s.rank in
  for t = 0 to k - 1 do
    let j = s.index.(t) in
    rank.(j lsr 5) <- rank.(j lsr 5) lor (1 lsl (j land 31))
  done;
  let below = ref 0 in
  for b = 0 to Array.length rank - 1 do
    let mask = rank.(b) in
    rank.(b) <- mask lor (!below lsl 32);
    below := !below + popcount32 mask
  done;
  s

let rec check_indices ~n = function
  | [] -> ()
  | (i, _) :: rest ->
      if i < 0 || i >= n then
        invalid_arg "Synopsis.make: coefficient index out of range";
      check_indices ~n rest

let rec ascending = function
  | ((i : int), _) :: ((j, _) :: _ as rest) -> i < j && ascending rest
  | _ -> true

(* No closure is allocated, and lists that callers already give
   without zeros, in ascending order, are kept as they are. *)
let make ~n coeffs =
  if not (Float_util.is_pow2 n) then
    invalid_arg "Synopsis.make: domain size must be a power of two";
  let coeffs =
    if List.exists (fun (_, c) -> c = 0.) coeffs then
      List.filter (fun (_, c) -> c <> 0.) coeffs
    else coeffs
  in
  check_indices ~n coeffs;
  let sorted =
    if ascending coeffs then coeffs
    else List.sort (fun (i, _) (j, _) -> compare i j) coeffs
  in
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

let mem t i = i >= 0 && i < t.n && slot t.supports i >= 0

(* The error-tree path of cell [i] (Section 2.2): c0, then at level l
   the ancestor [(n + i) lsr (levels - l)] of leaf [n + i], found by
   one rank lookup. Every other coefficient has sign 0 at [i], and
   adding its [0 * c] to the sum leaves it unchanged; the path's
   indices grow level by level, so its terms come in the ascending
   order of [Haar1d.point_from_set]'s fold. The two agree bit for bit
   when the retained values are finite. *)
let reconstruct_point t i =
  let ({ index; value; mid; level; _ } as s) = t.supports and n = t.n in
  let levels = Array.length level - 1 in
  if Array.length index = 0 then 0.
  else begin
    if i < 0 || i >= n then
      invalid_arg "Synopsis.reconstruct_point: cell out of range";
    let acc = ref 0. in
    if level.(0) > 0 then acc := value.(0);
    for l = 0 to levels - 1 do
      let p = slot s ((n + i) lsr (levels - l)) in
      if p >= 0 then begin
        let sign = if i < mid.(p) then 1 else -1 in
        acc := !acc +. (float_of_int sign *. value.(p))
      end
    done;
    !acc
  end

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
    let side = Haar_md.side_of_dims dims in
    let total = Array.fold_left (fun acc _ -> acc * side) 1 dims in
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
    let side = t.dims.(0) in
    List.fold_left
      (fun acc (flat, c) ->
        let coeff = Ndarray.unflatten ~dims:t.dims flat in
        acc +. (float_of_int (Haar_md.sign ~side ~coeff ~cell) *. c))
      0. t.coeffs

  let reconstruct t = Haar_md.reconstruct (sparse_wavelet t)
end
