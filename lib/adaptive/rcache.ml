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
   and hits return stored replies verbatim either way. *)

module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry

type ('k, 'v) t = {
  cap : int;
  table : ('k, 'v) Hashtbl.t;
  mutable epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  c_hits : Metric.counter option;
  c_misses : Metric.counter option;
  c_invalidations : Metric.counter option;
  g_size : Metric.gauge option;
}

let create ?obs ?(cap = 4096) () =
  if cap < 1 then invalid_arg "Rcache.create: cap must be at least 1";
  let instrument f = Option.map (fun reg -> f reg) obs in
  {
    cap;
    table = Hashtbl.create 64;
    epoch = 0;
    hits = 0;
    misses = 0;
    invalidations = 0;
    c_hits =
      instrument (fun reg ->
          Registry.counter reg ~help:"result cache hits" ~unit_:"requests"
            "serve.cache.hits");
    c_misses =
      instrument (fun reg ->
          Registry.counter reg ~help:"result cache misses" ~unit_:"requests"
            "serve.cache.misses");
    c_invalidations =
      instrument (fun reg ->
          Registry.counter reg
            ~help:"whole-cache flushes (epoch advance or capacity)"
            ~unit_:"flushes" "serve.cache.invalidations");
    g_size =
      instrument (fun reg ->
          Registry.gauge reg ~help:"result cache entries" ~unit_:"entries"
            "serve.cache.size");
  }

let set_size t =
  Option.iter
    (fun g -> Metric.set g (float_of_int (Hashtbl.length t.table)))
    t.g_size

let flush t =
  if Hashtbl.length t.table > 0 then begin
    Hashtbl.reset t.table;
    set_size t
  end;
  t.invalidations <- t.invalidations + 1;
  Metric.incr_opt t.c_invalidations

let sync t ~epoch =
  if epoch <> t.epoch then begin
    t.epoch <- epoch;
    flush t
  end

let find t ~epoch key =
  sync t ~epoch;
  match Hashtbl.find_opt t.table key with
  | Some _ as hit ->
      t.hits <- t.hits + 1;
      Metric.incr_opt t.c_hits;
      hit
  | None ->
      t.misses <- t.misses + 1;
      Metric.incr_opt t.c_misses;
      None

let mem t ~epoch key = epoch = t.epoch && Hashtbl.mem t.table key

let add t ~epoch key value =
  sync t ~epoch;
  if not (Hashtbl.mem t.table key) then begin
    if Hashtbl.length t.table >= t.cap then flush t;
    Hashtbl.replace t.table key value;
    set_size t
  end

let size t = Hashtbl.length t.table
let hits t = t.hits
let misses t = t.misses
let invalidations t = t.invalidations
let epoch t = t.epoch
