(* Deterministic result cache: an epoch-keyed memo table.

   The epoch is the caller's invalidation key — for the serving tier,
   a counter advanced exactly when the journal sequence moves or the
   serving synopsis is re-cut. Every lookup and insert first syncs the
   table to the caller's epoch: a mismatch flushes everything, so no
   entry computed against an older serving state can ever answer. With
   a deterministic epoch (a pure function of the request schedule) the
   whole cache state is one too, which is what keeps transcripts
   byte-identical cache-on vs cache-off.

   Capacity is bounded by flush-on-full: inserting a fresh key into a
   full table clears it first. Cruder than LRU, but the eviction
   pattern depends only on the insert sequence — no recency clocks —
   and hits return stored replies verbatim either way.

   The table is a chained hash table over the caller's [hash] and
   [equal], so each operation hashes its key exactly once: [add] is one
   find-or-insert walk of one bucket. A cell keeps its key's hash, which
   a resize reuses and a probe compares before calling [equal]. The
   bucket index is the top bits of the hash times an odd constant
   (multiplicative hashing), so a caller's hash need not be mixed: a
   packed integer key can be its own hash. *)

module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry

type ('k, 'v) bucket =
  | Empty
  | Cell of { key : 'k; hash : int; value : 'v; next : ('k, 'v) bucket }

type ('k, 'v) t = {
  cap : int;
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  mutable buckets : ('k, 'v) bucket array;
  mutable shift : int;  (* 63 - log2 (Array.length buckets) *)
  mutable size : int;
  mutable epoch : int;
  c_hits : Metric.counter;
  c_misses : Metric.counter;
  c_invalidations : Metric.counter;
  g_size : Metric.gauge;
}

let initial_shift = 57
let initial_buckets = 1 lsl (63 - initial_shift)

let create ?obs ?(cap = 4096) ?(hash = Hashtbl.hash) ?(equal = ( = )) () =
  if cap < 1 then invalid_arg "Rcache.create: cap must be at least 1";
  let reg = match obs with Some r -> r | None -> Registry.create () in
  {
    cap;
    hash;
    equal;
    buckets = Array.make initial_buckets Empty;
    shift = initial_shift;
    size = 0;
    epoch = 0;
    c_hits =
      Registry.counter reg ~help:"result cache hits" ~unit_:"requests"
        "serve.cache.hits";
    c_misses =
      Registry.counter reg ~help:"result cache misses" ~unit_:"requests"
        "serve.cache.misses";
    c_invalidations =
      Registry.counter reg
        ~help:"whole-cache flushes (epoch advance or capacity)"
        ~unit_:"flushes" "serve.cache.invalidations";
    g_size =
      Registry.gauge reg ~help:"result cache entries" ~unit_:"entries"
        "serve.cache.size";
  }

let index t h = (h * 0x2545F4914F6CDD1D) lsr t.shift

let set_size t = Metric.set_int t.g_size t.size

(* A flush shrinks a grown table back to its initial buckets, so an
   epoch flush after a burst of inserts costs what an empty table's
   does. *)
let flush t =
  if t.size > 0 then begin
    if Array.length t.buckets = initial_buckets then
      Array.fill t.buckets 0 initial_buckets Empty
    else begin
      t.buckets <- Array.make initial_buckets Empty;
      t.shift <- initial_shift
    end;
    t.size <- 0;
    set_size t
  end;
  Metric.incr t.c_invalidations

let sync t ~epoch =
  if epoch <> t.epoch then begin
    t.epoch <- epoch;
    flush t
  end

(* The cell of [key] (hash [h]) in a bucket chain, or [Empty]. *)
let rec cell t key h = function
  | Empty -> Empty
  | Cell c as found ->
      if c.hash = h && t.equal c.key key then found else cell t key h c.next

let find t ~epoch key =
  sync t ~epoch;
  let h = t.hash key in
  match cell t key h t.buckets.(index t h) with
  | Cell c ->
      Metric.incr t.c_hits;
      Some c.value
  | Empty ->
      Metric.incr t.c_misses;
      None

let mem t ~epoch key =
  epoch = t.epoch
  &&
  let h = t.hash key in
  match cell t key h t.buckets.(index t h) with Cell _ -> true | Empty -> false

(* Double the buckets once the load passes two entries per bucket;
   cells keep their stored hashes, so nothing is rehashed. *)
let grow t =
  let old = t.buckets in
  t.buckets <- Array.make (2 * Array.length old) Empty;
  t.shift <- t.shift - 1;
  let rec move = function
    | Empty -> ()
    | Cell c ->
        let i = index t c.hash in
        t.buckets.(i) <- Cell { c with next = t.buckets.(i) };
        move c.next
  in
  Array.iter move old

let add t ~epoch key value =
  sync t ~epoch;
  let h = t.hash key in
  match cell t key h t.buckets.(index t h) with
  | Cell _ -> ()
  | Empty ->
      if t.size >= t.cap then flush t;
      if t.size >= 2 * Array.length t.buckets then grow t;
      let i = index t h in
      t.buckets.(i) <- Cell { key; hash = h; value; next = t.buckets.(i) };
      t.size <- t.size + 1;
      set_size t

let size t = t.size
let hits t = Metric.counter_value t.c_hits
let misses t = Metric.counter_value t.c_misses
let invalidations t = Metric.counter_value t.c_invalidations
