let approx_equal ?(eps = 1e-9) a b =
  let diff = Float.abs (a -. b) in
  diff <= eps || diff <= eps *. Float.max (Float.abs a) (Float.abs b)

let clamp ~lo ~hi x = if x < lo then lo else if x > hi then hi else x

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  if n < 1 then invalid_arg "Float_util.next_pow2: argument must be >= 1";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let floor_log2 n =
  if n < 1 then invalid_arg "Float_util.floor_log2: argument must be >= 1";
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

let log2i n =
  if not (is_pow2 n) then invalid_arg "Float_util.log2i: not a power of two";
  floor_log2 n

let sum a =
  let total = ref 0. and comp = ref 0. in
  for i = 0 to Array.length a - 1 do
    let y = a.(i) -. !comp in
    let t = !total +. y in
    comp := t -. !total -. y;
    total := t
  done;
  !total

let max_abs a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a
