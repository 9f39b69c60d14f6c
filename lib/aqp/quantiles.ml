module Synopsis = Wavesyn_synopsis.Synopsis
module Range_query = Wavesyn_synopsis.Range_query

type refusal = Q_outside | Total_not_positive

let refusal_message = function
  | Q_outside -> "Quantiles: q must be in [0, 1]"
  | Total_not_positive -> "Quantiles: estimated total is not positive"

let cumulative syn i = Range_query.range_sum syn ~lo:0 ~hi:i

(* Written so that NaN fails it too. *)
let valid_q q = q >= 0. && q <= 1.

let search ~n ~q cumulative =
  if not (valid_q q) then Error Q_outside
  else begin
    let total = cumulative (n - 1) in
    if total <= 0. then Error Total_not_positive
    else begin
      let target = q *. total in
      (* Bisection for a crossing of cumulative >= target. The prefix
         sums of a synopsis can dip locally (reconstructed frequencies
         may be negative), in which case this returns one valid
         crossing. *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cumulative mid >= target then hi := mid else lo := mid + 1
      done;
      Ok !lo
    end
  end

let search_synopsis syn ~q =
  if not (valid_q q) then Error Q_outside
  else
    match Range_query.prefix_crossing syn ~q with
    | -1 -> Error Total_not_positive
    | pos -> Ok pos

let estimate syn ~q =
  match search_synopsis syn ~q with
  | Ok pos -> pos
  | Error r -> invalid_arg (refusal_message r)

let median syn = estimate syn ~q:0.5

let exact data ~q =
  if not (valid_q q) then invalid_arg (refusal_message Q_outside);
  let total = Wavesyn_util.Float_util.sum data in
  if total <= 0. then invalid_arg "Quantiles: total is not positive";
  let target = q *. total in
  let acc = ref 0. and result = ref (Array.length data - 1) in
  (try
     Array.iteri
       (fun i x ->
         acc := !acc +. x;
         if !acc >= target then begin
           result := i;
           raise Exit
         end)
       data
   with Exit -> ());
  !result
