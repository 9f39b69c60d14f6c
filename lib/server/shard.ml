(* Key-range sharding: the partition map and the scatter-gather
   router in front of it.

   The domain [0, n) is tiled by contiguous key ranges, one shard per
   range, each shard an ordinary server over its sub-domain (its own
   synopsis, store, journal and solver-pool lane). The router owns no
   synopsis at all: POINT and UPDATE forward to the owning shard with
   the index rebased to shard-local coordinates, RANGE splits into
   per-shard sub-ranges whose answers are summed in shard-index order,
   QUANTILE re-runs the unsharded bisection over composed per-shard
   prefix sums, and INGEST storms split per owner.

   Reads are served a round at a time ({!eval_round}): the round's
   POINT and RANGE sub-requests are gathered per shard in arrival
   order and each shard gets one BATCH frame, in shard-index order;
   the replies are then composed request by request, in arrival order.
   A request adds at most one sub-request per shard, so a shard's frame
   never holds more entries than the front-end admitted that round —
   with a shard queue bound at least the front-end's, a shard never
   sheds and its pressure and tier move only by RETIER.

   Determinism contract: every fan-out walks the shards in shard-index
   order — never arrival order, one frame in flight at a time — so the
   merged reply stream is a pure function of the request schedule and
   the shard states. On exactly-reconstructing configurations (budget
   at least the sub-domain size, sums exact in float arithmetic) the
   merged answers are byte-identical to the unsharded server's over the
   same data, for any shard count; see docs/SERVING.md for the precise
   statement. *)

module Validate = Wavesyn_robust.Validate
module Rcache = Wavesyn_adaptive.Rcache
module Quantiles = Wavesyn_aqp.Quantiles

type range = { lo : int; hi : int }

type rpc = Wire.request -> (Wire.reply list, Validate.error) result

let is_pow2 k = k > 0 && k land (k - 1) = 0

(* Every range a Haar synopsis can serve: contiguous cover of [0, n),
   nonempty, power-of-two lengths (a shard's sub-domain is itself a
   wavelet domain). *)
let check_ranges ~n ranges =
  if ranges = [] then Error "no shard ranges"
  else
    let rec go expected = function
      | [] ->
          if expected = n then Ok ()
          else
            Error
              (Printf.sprintf
                 "shard ranges cover [0, %d) but the domain is [0, %d)"
                 expected n)
      | { lo; hi } :: rest ->
          if lo <> expected then
            Error
              (Printf.sprintf
                 "shard ranges must tile the domain contiguously: expected \
                  lo %d, got %d"
                 expected lo)
          else if hi < lo then
            Error (Printf.sprintf "empty shard range [%d, %d]" lo hi)
          else if not (is_pow2 (hi - lo + 1)) then
            Error
              (Printf.sprintf
                 "shard range [%d, %d] has length %d, not a power of two" lo
                 hi (hi - lo + 1))
          else go (hi + 1) rest
    in
    go 0 ranges

let split ~n ~shards =
  if shards < 1 then Error "shard count must be at least 1"
  else if not (is_pow2 shards) then
    Error (Printf.sprintf "shard count %d is not a power of two" shards)
  else if shards > n then
    Error (Printf.sprintf "more shards (%d) than cells (%d)" shards n)
  else if n mod shards <> 0 then
    Error (Printf.sprintf "%d shards do not divide the domain %d" shards n)
  else
    let w = n / shards in
    Ok (List.init shards (fun k -> { lo = k * w; hi = ((k + 1) * w) - 1 }))

let parse_ranges ~n spec =
  let parse_one part =
    match String.split_on_char '-' (String.trim part) with
    | [ lo; hi ] -> (
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi -> Ok { lo; hi }
        | _ -> Error (Printf.sprintf "bad shard range %S (want LO-HI)" part))
    | _ -> Error (Printf.sprintf "bad shard range %S (want LO-HI)" part)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
        match parse_one part with
        | Ok r -> go (r :: acc) rest
        | Error _ as e -> e)
  in
  match go [] (String.split_on_char ',' spec) with
  | Error _ as e -> e
  | Ok ranges -> (
      match check_ranges ~n ranges with
      | Ok () -> Ok ranges
      | Error _ as e -> e)

(* --- the router --- *)

type t = {
  n : int;
  ranges : range array;
  rpcs : rpc array;
  seqs : int array;
      (* last journal sequence acknowledged by each shard; their sum is
         the global sequence ACKED replies carry, which equals the
         unsharded sequence when every write lands on exactly one
         shard. *)
  mutable level : int;  (* last pressure level broadcast via RETIER *)
  mutable memo : (int, float) Rcache.t option;
      (* optional sub-range sum memo, keyed by {!memo_key}; see
         {!set_cache} *)
  mutable memo_epoch : int;
      (* bumped on every event that can change a shard's synopsis —
         write acks and RETIER broadcasts — so the memo flushes exactly
         then *)
  sent : Wire.request list array;
  got : Wire.reply list array;
      (* per shard, the current round's gathered sub-requests not yet
         composed and their replies, in send order; empty outside
         {!eval_round} *)
}

let router ~n ?seqs ~ranges rpcs =
  match check_ranges ~n ranges with
  | Error _ as e -> e
  | Ok () ->
      let shards = List.length ranges in
      if Array.length rpcs <> shards then
        Error
          (Printf.sprintf "%d shard ranges but %d backends" shards
             (Array.length rpcs))
      else
        let seqs =
          match seqs with
          | None -> Array.make shards 0
          | Some s ->
              if Array.length s <> shards then
                invalid_arg "Shard.router: seqs length mismatch"
              else Array.copy s
        in
        Ok
          {
            n;
            ranges = Array.of_list ranges;
            rpcs;
            seqs;
            level = 0;
            memo = None;
            memo_epoch = 0;
            sent = Array.make shards [];
            got = Array.make shards [];
          }

(* The global journal sequence: the sum of the per-shard sequences last
   acknowledged through this router. *)
let seq t = Array.fold_left ( + ) 0 t.seqs

(* A sub-range lies inside its shard, so its global bounds name the
   shard too: [glo * n + ghi] is one key per (shard, lo, hi), with no
   allocation, for any n below 2^31. Rcache mixes the key, so it is its
   own hash. *)
let memo_key t k ~lo ~hi =
  let base = t.ranges.(k).lo in
  ((base + lo) * t.n) + base + hi

let set_cache t ~cap =
  if t.n >= 1 lsl 31 then invalid_arg "Shard.set_cache: domain too large";
  t.memo <- Some (Rcache.create ~cap ~hash:Fun.id ~equal:Int.equal ())
let memo_hits t = match t.memo with Some m -> Rcache.hits m | None -> 0
let memo_misses t = match t.memo with Some m -> Rcache.misses m | None -> 0
let bump_epoch t = t.memo_epoch <- t.memo_epoch + 1

let owner t i =
  let rec go k = if i <= t.ranges.(k).hi then k else go (k + 1) in
  go 0

(* A shard reply that is not the single expected frame — a transport
   failure, a miscounted batch — surfaces as a structured Internal
   error naming the shard, never an exception into the serving loop. *)
let call t k req =
  match t.rpcs.(k) req with
  | Ok [ reply ] -> reply
  | Ok replies ->
      Wire.Error
        {
          code = Wire.Internal;
          message =
            Printf.sprintf "shard %d: %d replies to one frame" k
              (List.length replies);
        }
  | Error e ->
      Wire.Error
        {
          code = Wire.Internal;
          message = Printf.sprintf "shard %d: %s" k (Validate.to_string e);
        }

exception Routed of Wire.reply

(* [f k lo hi] for each shard [k] overlapping the global range
   [lo, hi], in shard-index order, with the clipped sub-range in
   shard-local coordinates. *)
let iter_subranges t ~lo ~hi f =
  for k = 0 to Array.length t.ranges - 1 do
    let r = t.ranges.(k) in
    if r.hi >= lo && r.lo <= hi then
      f k (Stdlib.max lo r.lo - r.lo) (Stdlib.min hi r.hi - r.lo)
  done

let same_sub a b =
  match (a, b) with
  | Wire.Point i, Wire.Point j -> i = j
  | Wire.Range r, Wire.Range s -> r.lo = s.lo && r.hi = s.hi
  | _ -> false

let pop t k =
  match (t.sent.(k), t.got.(k)) with
  | _ :: sent, _ :: got ->
      t.sent.(k) <- sent;
      t.got.(k) <- got
  | _ -> ()

(* Shard [k]'s reply to a read sub-request: the gathered reply when
   [req] is next in shard [k]'s queue and that reply is a VALUE, else a
   frame of its own — so every error and OVERLOAD reply is the one a
   lone frame gets. *)
let answer t k req =
  match (t.sent.(k), t.got.(k)) with
  | next :: _, reply :: _ when same_sub next req -> (
      pop t k;
      match reply with Wire.Value _ -> reply | _ -> call t k req)
  | _ -> call t k req

let fetch t k ~lo ~hi =
  match answer t k (Wire.Range { lo; hi }) with
  | Wire.Value v -> v
  | other -> raise (Routed other)

(* Shard-local range sum, for the scatter-gather merge paths. Anything
   but a VALUE aborts the merge and surfaces as this request's reply.

   With a memo installed ({!set_cache}) a hit skips the sub-range — and
   drops it from the round's queue if the gather sent it anyway (an
   earlier request of the same round memoised it). That is sound
   because the memo epoch is bumped on every event that can change a
   shard's synopsis (write acks, RETIER), and reply-preserving because
   a shard never sheds (its frames hold at most the front-end's
   admitted count, see the header), so a skipped sub-range cannot
   change any shard's pressure history. Non-VALUE replies are never
   memoised. *)
let value t k ~lo ~hi =
  match t.memo with
  | None -> fetch t k ~lo ~hi
  | Some memo -> (
      let key = memo_key t k ~lo ~hi in
      match Rcache.find memo ~epoch:t.memo_epoch key with
      | Some v ->
          (match t.sent.(k) with
          | Wire.Range r :: _ when r.lo = lo && r.hi = hi -> pop t k
          | _ -> ());
          v
      | None ->
          let v = fetch t k ~lo ~hi in
          Rcache.add memo ~epoch:t.memo_epoch key v;
          v)

(* [Quantiles.search] over composed per-shard prefix sums: the prefix
   at a global index is the full totals of the shards before its owner,
   accumulated in shard-index order, plus the owner's local prefix.
   Totals are fetched on first use; the search's first probe is the
   last cell, so they arrive in shard-index order before any bisection
   probe, and that probe's sum is the sum of all totals. The probes
   depend on each other, so none is gathered: each is a memo lookup,
   then a frame of its own. *)
let quantile t q =
  let totals = Array.make (Array.length t.ranges) None in
  let total k =
    match totals.(k) with
    | Some v -> v
    | None ->
        let v = value t k ~lo:0 ~hi:(t.ranges.(k).hi - t.ranges.(k).lo) in
        totals.(k) <- Some v;
        v
  in
  let cumulative i =
    let k = owner t i in
    let before = ref 0. in
    for j = 0 to k - 1 do
      before := !before +. total j
    done;
    !before +. value t k ~lo:0 ~hi:(i - t.ranges.(k).lo)
  in
  Wire.of_quantile (Quantiles.search ~n:t.n ~q cumulative)

let compose t req =
  try
    match req with
    | Wire.Point i -> (
        match Wire.point_refusal ~n:t.n i with
        | Some refusal -> refusal
        | None ->
            let k = owner t i in
            answer t k (Wire.Point (i - t.ranges.(k).lo)))
    | Wire.Range { lo; hi } -> (
        match Wire.range_refusal ~n:t.n ~lo ~hi with
        | Some refusal -> refusal
        | None ->
            let acc = ref 0. in
            iter_subranges t ~lo ~hi (fun k lo hi ->
                acc := !acc +. value t k ~lo ~hi);
            Wire.Value !acc)
    | Wire.Quantile q -> quantile t q
    | _ -> Wire.Error { code = Wire.Internal; message = "not an admitted kind" }
  with Routed reply -> reply

let rec queued ~lo ~hi = function
  | Wire.Range r :: _ when r.lo = lo && r.hi = hi -> true
  | _ :: rest -> queued ~lo ~hi rest
  | [] -> false

(* The gather phase: each in-domain POINT's rebased cell and each RANGE
   sub-range the memo does not hold, queued per shard in arrival order.
   The memo probe counts no lookup, so [memo_hits + memo_misses] stays
   one per sub-range the compose phase asks for. With the memo on, a
   sub-range already queued this round is not queued again: the first
   copy's compose memoises it and the later copies hit. Without it
   each copy takes its own reply. *)
let gather t req =
  match req with
  | Wire.Point i when Option.is_none (Wire.point_refusal ~n:t.n i) ->
      let k = owner t i in
      t.sent.(k) <- Wire.Point (i - t.ranges.(k).lo) :: t.sent.(k)
  | Wire.Range { lo; hi } when Option.is_none (Wire.range_refusal ~n:t.n ~lo ~hi)
    ->
      iter_subranges t ~lo ~hi (fun k lo hi ->
          let held =
            match t.memo with
            | Some memo ->
                Rcache.mem memo ~epoch:t.memo_epoch (memo_key t k ~lo ~hi)
                || queued ~lo ~hi t.sent.(k)
            | None -> false
          in
          if not held then t.sent.(k) <- Wire.Range { lo; hi } :: t.sent.(k))
  | _ -> ()

(* One frame per shard with gathered sub-requests: a lone one goes as
   a plain frame, several as one BATCH. A miscounted batch or a
   transport failure keeps nothing, so each of its sub-requests falls
   back to a frame of its own in the compose phase. *)
let send t k =
  match t.sent.(k) with
  | [] -> ()
  | [ req ] -> t.got.(k) <- [ call t k req ]
  | newest_first -> (
      let reqs = List.rev newest_first in
      t.sent.(k) <- reqs;
      match t.rpcs.(k) (Wire.Batch reqs) with
      | Ok replies when List.compare_lengths replies reqs = 0 ->
          t.got.(k) <- replies
      | Ok _ | Error _ -> t.sent.(k) <- [])

let clear t =
  Array.fill t.sent 0 (Array.length t.sent) [];
  Array.fill t.got 0 (Array.length t.got) []

let eval_round ?len t reqs =
  let len = Option.value len ~default:(Array.length reqs) in
  for i = 0 to len - 1 do
    gather t reqs.(i)
  done;
  for k = 0 to Array.length t.rpcs - 1 do
    send t k
  done;
  let replies = Array.init len (fun i -> compose t reqs.(i)) in
  clear t;
  replies

let eval t req = (eval_round t [| req |]).(0)

(* --- the write path --- *)

(* Storms are validated globally before any shard sees a delta —
   the same atomic-on-validation contract (and the same messages) as
   the unsharded write path. Past validation the sub-storms apply in
   shard-index order; a journal failure on one shard leaves earlier
   shards' sub-storms durable (atomicity is per shard — the error
   reply tells the client its resume cursor, exactly as a mid-storm
   journal failure does unsharded). *)
let ingest t deltas =
  match Wire.storm_refusal ~n:t.n deltas with
  | Some refusal -> refusal
  | None ->
      let subs = Array.make (Array.length t.ranges) [] in
      List.iter
        (fun (i, d) ->
          let k = owner t i in
          subs.(k) <- (i - t.ranges.(k).lo, d) :: subs.(k))
        deltas;
      let failed = ref None in
      Array.iteri
        (fun k sub ->
          if sub <> [] && !failed = None then
            match call t k (Wire.Ingest (List.rev sub)) with
            | Wire.Acked { seq } ->
                t.seqs.(k) <- seq;
                bump_epoch t
            | other -> failed := Some other)
        subs;
      (match !failed with
      | Some reply -> reply
      | None -> Wire.Acked { seq = seq t })

let write t req =
  match req with
  | Wire.Update { i; delta } -> (
      (* A one-delta write, refused by the storm rule before any shard
         sees it. *)
      match Wire.storm_refusal ~n:t.n [ (i, delta) ] with
      | Some refusal -> refusal
      | None -> (
          let k = owner t i in
          match call t k (Wire.Update { i = i - t.ranges.(k).lo; delta }) with
          | Wire.Acked { seq = shard_seq } ->
              t.seqs.(k) <- shard_seq;
              bump_epoch t;
              Wire.Acked { seq = seq t }
          | other -> other))
  | Wire.Ingest deltas -> ingest t deltas
  | _ -> Wire.Error { code = Wire.Internal; message = "not a write" }

(* --- control plane --- *)

let retier t level =
  if level <> t.level then begin
    t.level <- level;
    bump_epoch t;
    (* Best effort, shard-index order: an unreachable shard keeps its
       old tier and its failover client sorts it out on the next
       request. *)
    Array.iteri (fun k _ -> ignore (call t k (Wire.Retier level))) t.rpcs
  end

let shutdown t =
  Array.iteri (fun k _ -> ignore (call t k Wire.Shutdown)) t.rpcs

let stats_sections t =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun k r ->
      Buffer.add_string buf
        (Printf.sprintf "== shard %d [%d, %d] ==\n" k r.lo r.hi);
      match call t k Wire.Stats with
      | Wire.Stats_text s ->
          Buffer.add_string buf s;
          if s = "" || s.[String.length s - 1] <> '\n' then
            Buffer.add_char buf '\n'
      | other -> Buffer.add_string buf (Wire.describe_reply other ^ "\n"))
    t.ranges;
  Buffer.contents buf
