(* Workload definitions and their seeded request streams.

   Composition is fixed: the run seed picks keys, ranges, quantiles and
   the order of kinds inside a block, never how many requests of each
   kind a block carries, so the counts of every request kind (and with
   them UPDATEs, full re-cuts, checkpoints and cache fills) are the same
   for every seed. The dataset is one fixed Zipf vector per workload,
   the same one `wavesyn server --gen zipf -n N --seed 42` serves. *)

module Wire = Wavesyn_server.Wire
module Prng = Wavesyn_util.Prng
module Signal = Wavesyn_datagen.Signal

type kind = Static | Live | Sharded

type t = {
  name : string;
  kind : kind;
  n : int;
  budget : int;
  batch : int;  (** requests per frame *)
  block : [ `P | `R | `Q | `U ] array;
      (** the multiset of kinds every block holds; the seed only
          permutes it *)
  hot : int;  (** > 0: timed stream cycles a hot set of this size *)
  setups : int;
      (** fresh server processes per run; each serves slices/setups of the
          timed slices and gives one setup_s sample *)
  warmup_frames : int;
  slice_frames : int;  (** frames per equal-work slice *)
  slices : int;  (** slices per run at the reference 20 s *)
  shards : int;
}

let data_seed = 42
let warmup_seed = 0x5eed
let cold_block = [| `P; `P; `P; `R; `R; `R; `Q; `Q |]

(* Full sizes are those the notes justify; [tiny] keeps every workload's
   shape (cadences, composition, topology) at a size the self-check can
   run in seconds. Live-write slices hold whole checkpoint cycles: 64
   updates at one UPDATE per four requests is 256 requests. *)
let workloads ~tiny =
  let n, budget = if tiny then (64, 8) else (1024, 128) in
  let setups = if tiny then 2 else 5 in
  let cold name kind shards =
    {
      name;
      kind;
      n;
      budget;
      batch = 8;
      block = cold_block;
      hot = 0;
      setups;
      warmup_frames = (if tiny then 16 else 256);
      slice_frames = (if tiny then 16 else 2800);
      slices = (if tiny then 2 else 20);
      shards;
    }
  in
  [
    cold "read-cold" Static 1;
    {
      (cold "read-hot" Static 1) with
      batch = 1;
      hot = 64;
      warmup_frames = (if tiny then 64 else 1024);
      slice_frames = (if tiny then 128 else 38400);
    };
    {
      name = "live-write";
      kind = Live;
      n = (if tiny then 64 else 256);
      budget = (if tiny then 8 else 32);
      batch = 1;
      block = [| `U; `P; `R; `Q |];
      hot = 0;
      setups;
      warmup_frames = 1024;
      slice_frames = (if tiny then 256 else 1792);
      slices = (if tiny then 2 else 20);
      shards = 1;
    };
    { (cold "read-sharded" Sharded 2) with slice_frames = (if tiny then 16 else 3500) };
  ]

let find ~tiny name = List.find_opt (fun w -> w.name = name) (workloads ~tiny)

(* Work scales with the requested run length, never with elapsed time:
   the same [--seconds] always sends the same requests. *)
let slices_for w ~seconds = max 2 ((w.slices * seconds + 19) / 20)

(* The watchdog: a fixed allowance for set-ups, warm-ups, the POINT
   sweep and the replay, plus a generous 5 s per slice (a full-size
   slice takes about 1 s). At the reference 20 s it is 160 s. A run
   never has more than max(2, seconds) slices, which run.py's outer
   timeout relies on. *)
let deadline_s w ~seconds = 60 + (5 * slices_for w ~seconds)

let frames_to_blocks w frames = frames * w.batch / Array.length w.block

let dataset w =
  Signal.zipf ~rng:(Prng.create ~seed:data_seed) ~n:w.n ~alpha:1.2
    ~scale:100.

(* Key generator with a run-wide memory of the RANGE and QUANTILE keys
   already sent, so keys never repeat: the warm-up's keys are reserved
   first, and every later key is drawn fresh. QUANTILE positions are
   multiples of 1e-6, which the canonical request text (the result
   cache's key) renders exactly. The memory is two bitsets, so it adds
   nothing for the load generator's garbage collector to scan. *)
type keys = { n : int; ranges : Bytes.t; quantiles : Bytes.t }

let quantile_steps = 1_000_000

let keys n =
  {
    n;
    ranges = Bytes.make (((n * n) + 7) / 8) '\000';
    quantiles = Bytes.make ((quantile_steps + 7) / 8) '\000';
  }

(* Mark bit [i]; false if it was already set. *)
let claim set i =
  let byte = Char.code (Bytes.get set (i lsr 3)) and bit = 1 lsl (i land 7) in
  byte land bit = 0
  && (Bytes.set set (i lsr 3) (Char.chr (byte lor bit));
      true)

(* RANGE and QUANTILE keys never repeat, so a run can draw only as many
   as there are: n(n+1)/2 ranges and [quantile_steps - 1] quantiles. A
   run too long for that is refused at start, instead of spinning on an
   exhausted key space. *)
let fits w ~seconds =
  let blocks =
    frames_to_blocks w w.warmup_frames
    + (if w.hot > 0 then w.hot / Array.length w.block
       else slices_for w ~seconds * frames_to_blocks w w.slice_frames)
  in
  let need kind =
    blocks * Array.fold_left (fun a k -> if k = kind then a + 1 else a) 0 w.block
  in
  let check what kind space =
    if need kind <= space then Ok ()
    else
      Error
        (Printf.sprintf "--seconds %d needs %d distinct %s keys; %s has only %d"
           seconds (need kind) what w.name space)
  in
  Result.bind (check "RANGE" `R (w.n * (w.n + 1) / 2)) (fun () ->
      check "QUANTILE" `Q (quantile_steps - 1))

let rec request k rng = function
  | `P -> Wire.Point (Prng.int rng k.n)
  | `R ->
      let a = Prng.int rng k.n and b = Prng.int rng k.n in
      let lo = min a b and hi = max a b in
      if claim k.ranges ((lo * k.n) + hi) then Wire.Range { lo; hi }
      else request k rng `R
  | `Q ->
      let step = 1 + Prng.int rng (quantile_steps - 1) in
      if claim k.quantiles step then
        Wire.Quantile (float_of_int step /. float_of_int quantile_steps)
      else request k rng `Q
  | `U ->
      Wire.Update
        { i = Prng.int rng k.n; delta = Prng.float rng 8. -. 4. }

(* [blocks] seeded blocks, each a permutation of the workload's block,
   cut into frames of [batch] requests. *)
let block_stream w k rng ~blocks =
  let reqs =
    Array.concat
      (List.init blocks (fun _ ->
           let b = Array.copy w.block in
           Prng.shuffle rng b;
           Array.map (request k rng) b))
  in
  Array.init (Array.length reqs / w.batch) (fun f ->
      Array.sub reqs (f * w.batch) w.batch)

let warmup w k =
  block_stream w k (Prng.create ~seed:warmup_seed)
    ~blocks:(frames_to_blocks w w.warmup_frames)

(* The hot set: [hot] distinct requests of the block composition. *)
let hot_set w k rng =
  Array.concat
    (List.init (w.hot / Array.length w.block) (fun _ ->
         Array.map (request k rng) w.block))

(* The timed stream as a generator of equal-work slices (drawn in
   order from one seeded stream), plus, for a hot workload, the untimed
   priming pass that fills the cache. *)
let timed w k ~seed =
  let rng = Prng.create ~seed in
  if w.hot > 0 then begin
    let hot = hot_set w k rng in
    let pass () =
      let p = Array.copy hot in
      Prng.shuffle rng p;
      Array.map (fun r -> [| r |]) p
    in
    ( Array.map (fun r -> [| r |]) hot,
      fun () -> Array.concat (List.init (w.slice_frames / w.hot) (fun _ -> pass ())) )
  end
  else ([||], fun () -> block_stream w k rng ~blocks:(frames_to_blocks w w.slice_frames))

let frame_request reqs =
  if Array.length reqs = 1 then reqs.(0) else Wire.Batch (Array.to_list reqs)

let is_read = function
  | Wire.Point _ | Wire.Range _ | Wire.Quantile _ -> true
  | _ -> false

(* A fresh durable store holding the workload's dataset, as
   `wavesyn serve --store DIR` would leave it: every cell ingested, then
   checkpointed. Its sequence is [n], a multiple of the 64-update
   checkpoint cadence, so the warm-up ends on a cadence boundary. *)
let prep_store (w : t) ~dir =
  let module Supervisor = Wavesyn_robust.Supervisor in
  let cfg =
    Supervisor.config ~sync:false ~checkpoint_every:max_int
      ~recut_every:max_int ~dir ~n:w.n ~budget:w.budget
      Wavesyn_synopsis.Metrics.Abs
  in
  match Supervisor.open_store cfg with
  | Error _ -> failwith ("cannot create store " ^ dir)
  | Ok sup ->
      Array.iteri
        (fun i v ->
          match Supervisor.ingest sup ~i ~delta:v with
          | Ok _ -> ()
          | Error _ -> failwith "store ingest failed")
        (dataset w);
      ignore (Supervisor.checkpoint sup);
      Supervisor.close sup
