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
  c_hits : Metric.counter;
  c_misses : Metric.counter;
  c_invalidations : Metric.counter;
  g_size : Metric.gauge;
}

let create ?obs ?(cap = 4096) () =
  if cap < 1 then invalid_arg "Rcache.create: cap must be at least 1";
  let reg = match obs with Some r -> r | None -> Registry.create () in
  {
    cap;
    table = Hashtbl.create 64;
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

let set_size t = Metric.set_int t.g_size (Hashtbl.length t.table)

let flush t =
  if Hashtbl.length t.table > 0 then begin
    Hashtbl.reset t.table;
    set_size t
  end;
  Metric.incr t.c_invalidations

let sync t ~epoch =
  if epoch <> t.epoch then begin
    t.epoch <- epoch;
    flush t
  end

let find t ~epoch key =
  sync t ~epoch;
  match Hashtbl.find_opt t.table key with
  | Some _ as hit ->
      Metric.incr t.c_hits;
      hit
  | None ->
      Metric.incr t.c_misses;
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
let hits t = Metric.counter_value t.c_hits
let misses t = Metric.counter_value t.c_misses
let invalidations t = Metric.counter_value t.c_invalidations
