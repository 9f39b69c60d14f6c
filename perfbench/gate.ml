(* The correctness gate: every reply the benchmark receives is checked
   against the exact data, which the gate tracks through acknowledged
   UPDATEs.

   - POINT: |exact - served| <= bound.
   - RANGE: |exact sum - served| <= (hi - lo + 1) * bound.
   - QUANTILE: a position inside the domain, or an `unanswerable` error
     that the caller confirms with a full-domain RANGE reading <= 0.
   - UPDATE: ACKED with the next journal sequence.

   [bound] is the static optimum on read-only workloads and the live
   server's `recut.bound` gauge on live-write. The slack [tol] absorbs
   float rounding between the exact sums here and the server's
   coefficient arithmetic, plus the gauge's six printed digits. *)

module Wire = Wavesyn_server.Wire

type t = {
  exact : float array;
  mutable prefix : float array;
  mutable stale : bool;
  mutable bound : float;
  mutable seq : int;
  mutable violations : string list;
  mutable unanswerable : int;
}

let create ~data ~bound ~seq =
  {
    exact = Array.copy data;
    prefix = [||];
    stale = true;
    bound;
    seq;
    violations = [];
    unanswerable = 0;
  }

let violate t fmt =
  Printf.ksprintf (fun s -> t.violations <- s :: t.violations) fmt

let prefix t =
  if t.stale then begin
    let n = Array.length t.exact in
    let p = Array.make (n + 1) 0. in
    for i = 0 to n - 1 do
      p.(i + 1) <- p.(i) +. t.exact.(i)
    done;
    t.prefix <- p;
    t.stale <- false
  end;
  t.prefix

let within t ~exact ~served ~width =
  let slack = width *. t.bound in
  Float.abs (exact -. served)
  <= slack +. (1e-5 *. slack) +. (1e-9 *. (1. +. Float.abs exact))

let range_exact t ~lo ~hi =
  let p = prefix t in
  p.(hi + 1) -. p.(lo)

(* Result of checking one reply. [`Failed] replies (OVERLOAD, errors)
   count against the run; [`Unanswerable] asks the caller to confirm. *)
let check t req reply =
  let n = Array.length t.exact in
  match (req, reply) with
  | Wire.Point i, Wire.Value v ->
      if not (within t ~exact:t.exact.(i) ~served:v ~width:1.) then
        violate t "POINT %d = %h, exact %h, bound %h" i v t.exact.(i) t.bound;
      `Ok
  | Wire.Range { lo; hi }, Wire.Value v ->
      let exact = range_exact t ~lo ~hi in
      if not (within t ~exact ~served:v ~width:(float_of_int (hi - lo + 1)))
      then violate t "RANGE %d %d = %h, exact %h, bound %h" lo hi v exact t.bound;
      `Ok
  | Wire.Quantile q, Wire.Quantile_pos p ->
      if p < 0 || p >= n then violate t "QUANTILE %g = %d outside [0, %d)" q p n;
      `Ok
  | Wire.Quantile _, Wire.Error { code = Wire.Unanswerable; _ } -> `Unanswerable
  | Wire.Update { i; delta }, Wire.Acked { seq } ->
      if seq <> t.seq + 1 then violate t "UPDATE acked seq %d, expected %d" seq (t.seq + 1);
      t.seq <- seq;
      t.exact.(i) <- t.exact.(i) +. delta;
      t.stale <- true;
      `Ok
  | _, (Wire.Overload _ | Wire.Error _) -> `Failed
  | req, reply ->
      violate t "%s answered %s" (Wire.describe_request req)
        (Wire.describe_reply reply);
      `Ok

(* An unanswerable QUANTILE is correct only when the served total is
   <= 0: [total] is the reply to the confirming full-domain RANGE. *)
let confirm_unanswerable t total =
  match total with
  | Wire.Value v when v <= 0. -> t.unanswerable <- t.unanswerable + 1
  | r -> violate t "QUANTILE unanswerable but RANGE total is %s" (Wire.describe_reply r)

