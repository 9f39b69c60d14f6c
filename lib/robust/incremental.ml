(* Incremental re-cut of a served synopsis under live point updates.

   The error tree is partitioned at a fixed frontier level: nodes
   [F .. 2F-1] root the frontier subtrees (each covering [n/F] data
   cells), nodes [0 .. F-1] are the global coefficients shared across
   subtrees. A full ladder cut fixes, per subtree, how many retained
   coefficients its budget share holds; between full cuts only the
   subtrees dirtied by applied deltas are re-solved — a greedy
   re-selection of each dirty subtree's share by absolute coefficient
   value, exactly the greedy floor of the ladder restricted to that
   subtree — and the served bound is re-stated from

     bound = max over subtrees s of  err(s) + slack(s)

   where [err(s)] is the exact max reconstruction error over [s]'s
   cells (re-measured whenever [s] is re-solved) and [slack(s)] is the
   triangle-inequality drift added by dirty {e dropped global}
   coefficients that changed since [s] was last measured. The bound is
   therefore always a true upper bound on the current max error: exact
   on freshly re-solved subtrees, exact-plus-drift on clean ones. A
   full ladder re-cut on the [full_every] cadence re-tightens
   everything and re-balances the per-subtree budget shares. *)

module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Float_util = Wavesyn_util.Float_util
module Stream_synopsis = Wavesyn_stream.Stream_synopsis
module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry

(* The [recut.*] metric family (docs/OBSERVABILITY.md). *)
type telemetry = {
  c_incremental : Metric.counter;
  c_full : Metric.counter;
  c_subtrees : Metric.counter;
  c_dirty : Metric.counter;
  g_bound : Metric.gauge;
}

let telemetry reg =
  {
    c_incremental =
      Registry.counter reg ~help:"incremental (dirty-subtree) re-cuts"
        ~unit_:"recuts" "recut.incremental";
    c_full =
      Registry.counter reg ~help:"full ladder re-cuts" ~unit_:"recuts"
        "recut.full";
    c_subtrees =
      Registry.counter reg ~help:"dirty subtrees re-solved" ~unit_:"subtrees"
        "recut.subtrees";
    c_dirty =
      Registry.counter reg ~help:"coefficients marked dirty by updates"
        ~unit_:"coefficients" "recut.dirty_coeffs";
    g_bound =
      Registry.gauge reg ~help:"stated max-error bound of the served synopsis"
        ~unit_:"error" "recut.bound";
  }

type t = {
  n : int;
  budget : int;
  metric : Metrics.error_metric;
  epsilon : float;
  frontier : int;  (* F: subtree roots are F .. 2F-1, globals 0 .. F-1 *)
  full_every : int;
  m : telemetry;
  kept : Bytes.t;  (* '\001' at every retained coefficient index *)
  value : float array;  (* served value of each retained coefficient *)
  sub_budget : int array;  (* per-subtree retained share, index s - F *)
  sub_err : float array;  (* exact max error at last re-solve of s *)
  sub_slack : float array;  (* drift bound added to s since *)
  drift : float array;  (* coeff -> accumulated |delta c| since refresh *)
  dirty : Bytes.t;
      (* 2F flags: node j < F is a global coefficient noted since the
         last refresh, node F <= j < 2F a subtree with a noted
         coefficient. Coefficient 0 is on every path, so flag 0 is set
         exactly when anything is dirty. *)
  cand : int array;  (* scratch: one subtree's candidate indices *)
  mag : float array;  (* scratch: their absolute values *)
  acc : float array;  (* scratch: one subtree's per-cell error prefixes *)
  mutable since_full : int;
  mutable tier : string;
  mutable bound : float;
  mutable synopsis : Synopsis.t;
}

let frontier_of n = Stdlib.max 1 (Stdlib.min 8 (n / 2))
let is_kept t j = Bytes.unsafe_get t.kept j <> '\000'
let is_dirty t j = Bytes.unsafe_get t.dirty j <> '\000'

(* Frontier subtree owning coefficient [j >= F]: its ancestor at the
   frontier level. *)
let subtree_of t j =
  j lsr (Float_util.floor_log2 j - Float_util.log2i t.frontier)

(* Does the support of global coefficient [j < F] cover frontier
   subtree [s]? Dyadic supports nest, so it does exactly when [j] is c0
   or an ancestor of [s] in the error tree. *)
let covers j s =
  j <= 1
  || s lsr (Float_util.floor_log2 s - Float_util.floor_log2 j) = j

(* Exact max reconstruction error over the cells of subtree [s],
   against the stream's current coefficients: per cell, the error is
   the signed sum of its {e dropped} non-zero path coefficients, root
   first (retained ones reproduce the data exactly). The globals above
   [s] carry one sign over all of [s]'s cells, so their sum is taken
   once; the walk then descends [s] a level at a time, widening the
   per-cell prefixes in [acc] rightmost first (as [Haar1d.reconstruct]
   does): the left child's cells add [c], the right child's subtract
   it. Every cell thus gets the same additions, in the same order, as
   its own root-first path sum, in O(n/F) steps. Error-tree nodes from
   [n] up are the cells themselves. *)
let measure_subtree t stream s =
  let term j =
    if is_kept t j then 0. else Stream_synopsis.coefficient stream j
  in
  let prefix = ref 0. in
  let c0 = term 0 in
  if c0 <> 0. then prefix := !prefix +. c0;
  for k = Float_util.floor_log2 s downto 1 do
    let c = term (s lsr k) in
    if c <> 0. then
      prefix := if (s lsr (k - 1)) land 1 = 0 then !prefix +. c else !prefix -. c
  done;
  let acc = t.acc in
  acc.(0) <- !prefix;
  let first = ref s and width = ref 1 in
  while !first < t.n do
    for k = !width - 1 downto 0 do
      let a = acc.(k) and c = term (!first + k) in
      if c = 0. then begin
        acc.(2 * k) <- a;
        acc.((2 * k) + 1) <- a
      end
      else begin
        acc.(2 * k) <- a +. c;
        acc.((2 * k) + 1) <- a -. c
      end
    done;
    first := 2 * !first;
    width := 2 * !width
  done;
  let worst = ref 0. in
  for k = 0 to !width - 1 do
    let e = Float.abs acc.(k) in
    if e > !worst then worst := e
  done;
  !worst

let remeasure_all t stream =
  for s = t.frontier to (2 * t.frontier) - 1 do
    t.sub_err.(s - t.frontier) <- measure_subtree t stream s;
    t.sub_slack.(s - t.frontier) <- 0.
  done

let restate_bound t =
  let b = ref 0. in
  Array.iteri
    (fun k e ->
      let v = e +. t.sub_slack.(k) in
      if v > !b then b := v)
    t.sub_err;
  t.bound <- !b;
  Metric.set t.m.g_bound t.bound

(* Ascending index order, which [Synopsis.make] keeps without sorting. *)
let rebuild_synopsis t =
  let coeffs = ref [] in
  for j = t.n - 1 downto 0 do
    if is_kept t j && t.value.(j) <> 0. then
      coeffs := (j, t.value.(j)) :: !coeffs
  done;
  t.synopsis <- Synopsis.make ~n:t.n !coeffs

(* Install a full ladder answer: adopt its retained set, freeze the
   per-subtree budget shares it implies, and re-measure every subtree
   exactly. *)
let install_full t stream (served : Ladder.served) =
  Bytes.fill t.kept 0 t.n '\000';
  Bytes.fill t.dirty 0 (2 * t.frontier) '\000';
  Array.fill t.drift 0 t.n 0.;
  Array.fill t.sub_budget 0 (Array.length t.sub_budget) 0;
  List.iter
    (fun (j, c) ->
      Bytes.set t.kept j '\001';
      t.value.(j) <- c;
      if j >= t.frontier then begin
        let k = subtree_of t j - t.frontier in
        t.sub_budget.(k) <- t.sub_budget.(k) + 1
      end)
    (Synopsis.coeffs served.Ladder.synopsis);
  remeasure_all t stream;
  restate_bound t;
  t.tier <- Ladder.tier_name served.Ladder.tier;
  t.since_full <- 0;
  rebuild_synopsis t;
  Metric.incr t.m.c_full

let full_cut ?top t stream =
  match
    Ladder.serve ?top ~epsilon:t.epsilon
      ~data:(Stream_synopsis.current_data stream)
      ~budget:t.budget t.metric
  with
  | Ok served ->
      install_full t stream served;
      Ok served
  | Error _ as e ->
      (* Cannot happen for finite data (the greedy floor is total);
         keep serving the previous synopsis and bound. *)
      e

let create ?obs ?(full_every = 32) ~budget ~metric ~epsilon stream =
  if full_every < 1 then
    invalid_arg "Incremental.create: full_every must be at least 1";
  let n = Stream_synopsis.n stream in
  let frontier = frontier_of n in
  let t =
    {
      n;
      budget;
      metric;
      epsilon;
      frontier;
      full_every;
      m =
        telemetry (match obs with Some r -> r | None -> Registry.create ());
      kept = Bytes.make n '\000';
      value = Array.make n 0.;
      sub_budget = Array.make frontier 0;
      sub_err = Array.make frontier 0.;
      sub_slack = Array.make frontier 0.;
      drift = Array.make n 0.;
      dirty = Bytes.make (2 * frontier) '\000';
      cand = Array.make (n / frontier) 0;
      mag = Array.make (n / frontier) 0.;
      acc = Array.make (n / frontier) 0.;
      since_full = 0;
      tier = "none";
      bound = 0.;
      synopsis = Synopsis.make ~n [];
    }
  in
  ignore (full_cut t stream);
  t

(* Mark the coefficients dirtied by [d_i += delta] — the same log N + 1
   path [Stream_synopsis.update] touches, with the same per-coefficient
   magnitude — accumulating |delta c| per coefficient for the drift
   bound, and flag the globals and the frontier subtree the path
   crosses. Call once per applied update (before or after the stream
   apply; the path is a function of [i] alone). *)
let[@inline] note t j amount =
  let prev = t.drift.(j) in
  t.drift.(j) <- prev +. amount;
  if j < 2 * t.frontier then Bytes.unsafe_set t.dirty j '\001';
  if prev = 0. then Metric.incr t.m.c_dirty

let note_update t ~i ~delta =
  if i >= 0 && i < t.n then begin
    let node = ref (t.n + i) and support = ref 1 in
    while !node > 1 do
      node := !node lsr 1;
      support := 2 * !support;
      note t !node (Float.abs (delta /. float_of_int !support))
    done;
    note t 0 (Float.abs (delta /. float_of_int t.n));
    t.since_full <- t.since_full + 1
  end

let due_full t = t.since_full >= t.full_every

(* Candidate slots [a] and [b]: does [a] rank first? Larger magnitude
   first (ordered as Stdlib [compare] orders floats), then lower index. *)
let ranks_before t a b =
  match Float.compare t.mag.(a) t.mag.(b) with
  | 0 -> t.cand.(a) < t.cand.(b)
  | o -> o > 0

let swap_cand t a b =
  let j = t.cand.(a) and m = t.mag.(a) in
  t.cand.(a) <- t.cand.(b);
  t.mag.(a) <- t.mag.(b);
  t.cand.(b) <- j;
  t.mag.(b) <- m

(* Sift slot [r] down the heap [t.cand.(0 .. k-1)] whose root is the
   candidate ranking last. *)
let rec sift_down t k r =
  let l = (2 * r) + 1 in
  if l < k then begin
    let last =
      if l + 1 < k && ranks_before t l (l + 1) then l + 1 else l
    in
    if ranks_before t r last then begin
      swap_cand t r last;
      sift_down t k last
    end
  end

(* Re-solve one dirty subtree: re-select its frozen budget share by
   absolute coefficient value (greedy max-error floor restricted to the
   subtree), deterministically tie-broken by index. The share's [k]
   best of the subtree's [m] non-zero coefficients are picked by a heap
   of size [k] over [t.cand], O(m log k). *)
let resolve_subtree t stream s =
  let share = t.sub_budget.(s - t.frontier) in
  let m = ref 0 and first = ref s and width = ref 1 in
  while !first < t.n do
    for j = !first to !first + !width - 1 do
      Bytes.unsafe_set t.kept j '\000';
      t.drift.(j) <- 0.;
      let c = Stream_synopsis.coefficient stream j in
      if c <> 0. then begin
        t.cand.(!m) <- j;
        t.mag.(!m) <- Float.abs c;
        incr m
      end
    done;
    first := 2 * !first;
    width := 2 * !width
  done;
  let k = Stdlib.min share !m in
  for r = (k / 2) - 1 downto 0 do
    sift_down t k r
  done;
  for r = k to !m - 1 do
    if k > 0 && ranks_before t r 0 then begin
      swap_cand t r 0;
      sift_down t k 0
    end
  done;
  for r = 0 to k - 1 do
    let j = t.cand.(r) in
    Bytes.unsafe_set t.kept j '\001';
    t.value.(j) <- Stream_synopsis.coefficient stream j
  done;
  t.sub_err.(s - t.frontier) <- measure_subtree t stream s;
  t.sub_slack.(s - t.frontier) <- 0.;
  Metric.incr t.m.c_subtrees

(* The incremental step: fold the dirty set into the served state. *)
let refresh t stream =
  if is_dirty t 0 then begin
    let f = t.frontier in
    (* Dirty globals, ascending: retained ones track the stream exactly
       (their contribution cancels in every cell's error); dropped ones
       add their accumulated |delta c| as drift to every subtree their
       support crosses — unless that subtree is re-measured below. *)
    for j = 0 to f - 1 do
      if is_dirty t j then begin
        if is_kept t j then t.value.(j) <- Stream_synopsis.coefficient stream j
        else
          for s = f to (2 * f) - 1 do
            if (not (is_dirty t s)) && covers j s then
              t.sub_slack.(s - f) <- t.sub_slack.(s - f) +. t.drift.(j)
          done;
        t.drift.(j) <- 0.
      end
    done;
    for s = f to (2 * f) - 1 do
      if is_dirty t s then resolve_subtree t stream s
    done;
    Bytes.fill t.dirty 0 (2 * f) '\000';
    restate_bound t;
    rebuild_synopsis t;
    Metric.incr t.m.c_incremental
  end

let synopsis t = t.synopsis
let bound t = t.bound
let tier t = t.tier
type stats = {
  full_cuts : int;
  incrementals : int;
  subtrees_resolved : int;
  since_full : int;
}

let stats (t : t) =
  {
    full_cuts = Metric.counter_value t.m.c_full;
    incrementals = Metric.counter_value t.m.c_incremental;
    subtrees_resolved = Metric.counter_value t.m.c_subtrees;
    since_full = t.since_full;
  }
