type t = { dims : int array; strides : int array; data : float array }

let compute_strides dims =
  let d = Array.length dims in
  let strides = Array.make d 1 in
  for i = d - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * dims.(i + 1)
  done;
  strides

let check_dims dims =
  if Array.length dims = 0 then invalid_arg "Ndarray: empty shape";
  Array.iter
    (fun d -> if d < 1 then invalid_arg "Ndarray: dimension must be >= 1")
    dims

let total dims = Array.fold_left ( * ) 1 dims

let create ~dims x =
  check_dims dims;
  let dims = Array.copy dims in
  { dims; strides = compute_strides dims; data = Array.make (total dims) x }

let dims t = Array.copy t.dims
let ndim t = Array.length t.dims
let size t = Array.length t.data

let flat_of_index t idx =
  if Array.length idx <> Array.length t.dims then
    invalid_arg "Ndarray: index rank mismatch";
  let flat = ref 0 in
  for i = 0 to Array.length idx - 1 do
    let x = idx.(i) in
    if x < 0 || x >= t.dims.(i) then invalid_arg "Ndarray: index out of bounds";
    flat := !flat + (x * t.strides.(i))
  done;
  !flat

(* Mixed-radix digits of [flat], last dimension fastest; the first
   coordinate takes whatever is left, as a division by its stride
   would. *)
let unflatten ~dims flat =
  let d = Array.length dims in
  let idx = Array.make d 0 in
  let rem = ref flat in
  for i = d - 1 downto 1 do
    idx.(i) <- !rem mod dims.(i);
    rem := !rem / dims.(i)
  done;
  if d > 0 then idx.(0) <- !rem;
  idx

let index_of_flat t flat = unflatten ~dims:t.dims flat

let get t idx = t.data.(flat_of_index t idx)
let set t idx x = t.data.(flat_of_index t idx) <- x
let get_flat t i = t.data.(i)
let set_flat t i x = t.data.(i) <- x

let of_flat_array ~dims data =
  check_dims dims;
  if Array.length data <> total dims then
    invalid_arg "Ndarray.of_flat_array: length mismatch";
  let dims = Array.copy dims in
  { dims; strides = compute_strides dims; data }

let to_flat_array t = Array.copy t.data

let copy t = { t with dims = Array.copy t.dims; data = Array.copy t.data }

let map f t = { t with dims = Array.copy t.dims; data = Array.map f t.data }

(* Row-major iteration with a single reused index array: increment the last
   coordinate and carry. *)
let iteri f t =
  let d = Array.length t.dims in
  let idx = Array.make d 0 in
  let n = Array.length t.data in
  for flat = 0 to n - 1 do
    f idx t.data.(flat);
    let rec bump i =
      if i >= 0 then begin
        idx.(i) <- idx.(i) + 1;
        if idx.(i) = t.dims.(i) then begin
          idx.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    if flat < n - 1 then bump (d - 1)
  done

let init ~dims f =
  let t = create ~dims 0. in
  let d = Array.length t.dims in
  let idx = Array.make d 0 in
  let n = Array.length t.data in
  for flat = 0 to n - 1 do
    t.data.(flat) <- f idx;
    let rec bump i =
      if i >= 0 then begin
        idx.(i) <- idx.(i) + 1;
        if idx.(i) = t.dims.(i) then begin
          idx.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    if flat < n - 1 then bump (d - 1)
  done;
  t

let equal ?eps a b =
  a.dims = b.dims
  && begin
       let ok = ref true in
       Array.iteri
         (fun i x ->
           if not (Float_util.approx_equal ?eps x b.data.(i)) then ok := false)
         a.data;
       !ok
     end

let max_abs t = Float_util.max_abs t.data
