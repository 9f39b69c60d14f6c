module Synopsis = Wavesyn_synopsis.Synopsis
module Range_query = Wavesyn_synopsis.Range_query

let prefix_crossing ?(probe = fun _ _ -> ()) syn ~q =
  let n = Synopsis.n syn in
  let total = Range_query.range_sum syn ~lo:0 ~hi:(n - 1) in
  if total <= 0. then -1
  else begin
    let target = q *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let sum = Range_query.range_sum syn ~lo:0 ~hi:mid in
      probe mid sum;
      if sum >= target then hi := mid else lo := mid + 1
    done;
    !lo
  end
