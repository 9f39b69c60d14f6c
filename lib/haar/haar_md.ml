module Ndarray = Wavesyn_util.Ndarray
module Float_util = Wavesyn_util.Float_util

let pow_int_ b e =
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

let side_of_dims dims =
  Ndarray.check_dims dims;
  let n = dims.(0) in
  Array.iter
    (fun d ->
      if d <> n then invalid_arg "Haar_md: dimensions must all be equal")
    dims;
  if not (Float_util.is_pow2 n) then
    invalid_arg "Haar_md: dimensions must be powers of two";
  n

let side a = side_of_dims (Ndarray.dims a)

let levels a = Float_util.log2i (side a)

(* Iterate over all index arrays in [0, bound)^d, reusing one array. *)
let iter_cube ~bound ~d f =
  let idx = Array.make d 0 in
  let rec go i =
    if i = d then f idx
    else
      for x = 0 to bound - 1 do
        idx.(i) <- x;
        go (i + 1)
      done
  in
  go 0

(* In-block tensor Haar step: for every dimension, combine each pair of
   buffer slots differing only in that dimension's bit into
   (average, difference/2). *)
let forward_block v d =
  for dim = 0 to d - 1 do
    let bit = 1 lsl dim in
    for mask = 0 to Array.length v - 1 do
      if mask land bit = 0 then begin
        let x = v.(mask) and y = v.(mask lor bit) in
        v.(mask) <- (x +. y) /. 2.;
        v.(mask lor bit) <- (x -. y) /. 2.
      end
    done
  done

let inverse_block v d =
  for dim = d - 1 downto 0 do
    let bit = 1 lsl dim in
    for mask = 0 to Array.length v - 1 do
      if mask land bit = 0 then begin
        let avg = v.(mask) and det = v.(mask lor bit) in
        v.(mask) <- avg +. det;
        v.(mask lor bit) <- avg -. det
      end
    done
  done

let flat_of ~strides idx =
  let acc = ref 0 in
  for i = 0 to Array.length idx - 1 do
    acc := !acc + (idx.(i) * strides.(i))
  done;
  !acc

let strides_of ~d ~n =
  let strides = Array.make d 1 in
  for i = d - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * n
  done;
  strides

let decompose a =
  let n = side a in
  let d = Ndarray.ndim a in
  let dims = Ndarray.dims a in
  let strides = strides_of ~d ~n in
  let work = Ndarray.to_flat_array a in
  let out = Array.make (Array.length work) 0. in
  let block = Array.make (1 lsl d) 0. in
  let m = ref n in
  while !m > 1 do
    let s = !m / 2 in
    iter_cube ~bound:s ~d (fun q ->
        let base = 2 * flat_of ~strides q in
        for mask = 0 to (1 lsl d) - 1 do
          let off = ref 0 in
          for i = 0 to d - 1 do
            if mask land (1 lsl i) <> 0 then off := !off + strides.(i)
          done;
          block.(mask) <- work.(base + !off)
        done;
        forward_block block d;
        for mask = 1 to (1 lsl d) - 1 do
          let off = ref 0 in
          for i = 0 to d - 1 do
            if mask land (1 lsl i) <> 0 then off := !off + (s * strides.(i))
          done;
          out.(flat_of ~strides q + !off) <- block.(mask)
        done;
        work.(flat_of ~strides q) <- block.(0));
    m := s
  done;
  out.(0) <- work.(0);
  Ndarray.of_flat_array ~dims out

(* Parallel variant: per level, blocks are independent once reads and
   writes are separated into distinct buffers, so each level is a
   parallel-for with a join. *)
let decompose_parallel ?num_domains a =
  let n = side a in
  let d = Ndarray.ndim a in
  let dims = Ndarray.dims a in
  let strides = strides_of ~d ~n in
  let total = Ndarray.size a in
  let domains =
    match num_domains with
    | Some k when k >= 1 -> k
    | Some _ -> invalid_arg "Haar_md.decompose_parallel: bad num_domains"
    | None -> Stdlib.max 1 (Domain.recommended_domain_count ())
  in
  let src = ref (Ndarray.to_flat_array a) in
  let dst = ref (Array.make total 0.) in
  let out = Array.make total 0. in
  let m = ref n in
  while !m > 1 do
    let s = !m / 2 in
    let nblocks = pow_int_ s d in
    let src_a = !src and dst_a = !dst in
    let process lo hi =
      let block = Array.make (1 lsl d) 0. in
      let q = Array.make d 0 in
      for bid = lo to hi - 1 do
        (* decode the block id into cube coordinates (base s) *)
        let rem = ref bid in
        for i = d - 1 downto 0 do
          q.(i) <- !rem mod s;
          rem := !rem / s
        done;
        let qflat = flat_of ~strides q in
        let base = 2 * qflat in
        for mask = 0 to (1 lsl d) - 1 do
          let off = ref 0 in
          for i = 0 to d - 1 do
            if mask land (1 lsl i) <> 0 then off := !off + strides.(i)
          done;
          block.(mask) <- src_a.(base + !off)
        done;
        forward_block block d;
        for mask = 1 to (1 lsl d) - 1 do
          let off = ref 0 in
          for i = 0 to d - 1 do
            if mask land (1 lsl i) <> 0 then off := !off + (s * strides.(i))
          done;
          out.(qflat + !off) <- block.(mask)
        done;
        dst_a.(qflat) <- block.(0)
      done
    in
    if domains = 1 || nblocks < 2048 then process 0 nblocks
    else begin
      let k = Stdlib.min domains nblocks in
      let chunk = (nblocks + k - 1) / k in
      let workers =
        List.init k (fun w ->
            let lo = w * chunk and hi = Stdlib.min nblocks ((w + 1) * chunk) in
            Domain.spawn (fun () -> if lo < hi then process lo hi))
      in
      List.iter Domain.join workers
    end;
    let tmp = !src in
    src := !dst;
    dst := tmp;
    m := s
  done;
  out.(0) <- !src.(0);
  Ndarray.of_flat_array ~dims out

let reconstruct w =
  let n = side w in
  let d = Ndarray.ndim w in
  let dims = Ndarray.dims w in
  let strides = strides_of ~d ~n in
  let coeffs = Ndarray.to_flat_array w in
  let work = Array.make (Array.length coeffs) 0. in
  work.(0) <- coeffs.(0);
  let block = Array.make (1 lsl d) 0. in
  let s = ref 1 in
  while !s < n do
    let sv = !s in
    (* Expand from scale sv to 2 * sv; process cube coordinates in
       descending flat order so coarse averages are read before their
       slots are overwritten. *)
    let qs = ref [] in
    iter_cube ~bound:sv ~d (fun q -> qs := Array.copy q :: !qs);
    List.iter
      (fun q ->
        let qflat = flat_of ~strides q in
        block.(0) <- work.(qflat);
        for mask = 1 to (1 lsl d) - 1 do
          let off = ref 0 in
          for i = 0 to d - 1 do
            if mask land (1 lsl i) <> 0 then off := !off + (sv * strides.(i))
          done;
          block.(mask) <- coeffs.(qflat + !off)
        done;
        inverse_block block d;
        let base = 2 * qflat in
        for mask = 0 to (1 lsl d) - 1 do
          let off = ref 0 in
          for i = 0 to d - 1 do
            if mask land (1 lsl i) <> 0 then off := !off + strides.(i)
          done;
          work.(base + !off) <- block.(mask)
        done)
      !qs;
    s := 2 * sv
  done;
  Ndarray.of_flat_array ~dims work

let scale_of_pos pos =
  let m = Array.fold_left Stdlib.max 0 pos in
  if m = 0 then None (* overall average *)
  else Some (1 lsl Float_util.floor_log2 m)

let support_of_coeff w pos =
  let n = side w in
  let d = Ndarray.ndim w in
  if Array.length pos <> d then invalid_arg "Haar_md: position rank mismatch";
  match scale_of_pos pos with
  | None -> Array.make d (0, n)
  | Some s ->
      let width = n / s in
      Array.map
        (fun j ->
          let q = if j >= s then j - s else j in
          (q * width, (q * width) + width))
        pos

let sign ~side:n ~coeff ~cell =
  let d = Array.length coeff in
  if Array.length cell <> d then invalid_arg "Haar_md.sign_at: rank mismatch";
  Array.iter
    (fun x ->
      if x < 0 || x >= n then invalid_arg "Haar_md.sign_at: cell out of range")
    cell;
  match scale_of_pos coeff with
  | None -> 1
  | Some s ->
      let width = n / s in
      let rec go i sign =
        if i = d then sign
        else begin
          let j = coeff.(i) in
          let detail = j >= s in
          let q = if detail then j - s else j in
          let lo = q * width in
          let hi = lo + width in
          if cell.(i) < lo || cell.(i) >= hi then 0
          else if detail && cell.(i) >= lo + (width / 2) then go (i + 1) (-sign)
          else go (i + 1) sign
        end
      in
      go 0 1

let sign_at w ~coeff ~cell =
  if Array.length coeff <> Ndarray.ndim w then
    invalid_arg "Haar_md.sign_at: rank mismatch";
  sign ~side:(side w) ~coeff ~cell

let point ~wavelet cell =
  let n = side wavelet in
  let d = Ndarray.ndim wavelet in
  let levels = Float_util.log2i n in
  let origin = Array.make d 0 in
  let acc = ref (Ndarray.get wavelet origin) in
  let pos = Array.make d 0 in
  for l = 0 to levels - 1 do
    let s = 1 lsl l in
    let shift = levels - l in
    for mask = 1 to (1 lsl d) - 1 do
      let sign = ref 1 in
      for i = 0 to d - 1 do
        let q = cell.(i) lsr shift in
        if mask land (1 lsl i) <> 0 then begin
          pos.(i) <- q + s;
          (* Quadrant bit: which half of this node's support the cell
             falls in along dimension i. *)
          if (cell.(i) lsr (shift - 1)) land 1 = 1 then sign := - !sign
        end
        else pos.(i) <- q
      done;
      acc := !acc +. (float_of_int !sign *. Ndarray.get wavelet pos)
    done
  done;
  !acc
