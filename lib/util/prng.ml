type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x5bd1e995 |]

let float t bound = Random.State.float t bound

let int t bound =
  if bound < 1 then invalid_arg "Prng.int: bound must be >= 1";
  Random.State.int t bound

let bool t = Random.State.bool t

let bernoulli t p =
  let p = if p < 0. then 0. else if p > 1. then 1. else p in
  Random.State.float t 1.0 < p

let gaussian t =
  let rec draw () =
    let u = Random.State.float t 1.0 in
    if u = 0. then draw () else u
  in
  let u1 = draw () and u2 = Random.State.float t 1.0 in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
