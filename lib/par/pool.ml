module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry
module Mclock = Wavesyn_obs.Mclock

type instruments = {
  tasks : Metric.counter;
  chunks : Metric.counter;
  grain : Metric.gauge;
  chunk_ms : Metric.histogram;
}

(* One submitted fan-out: [total] chunks, handed out by index. A chunk
   runner never raises (exceptions are captured into [failure], keyed
   by chunk index so the lowest-index failure wins deterministically). *)
type batch = {
  run : int -> unit;
  total : int;
  mutable next : int;
  mutable completed : int;
}

type t = {
  domains : int;
  mutex : Mutex.t;
  work : Condition.t;  (* signalled on new chunks and on shutdown *)
  finished : Condition.t;  (* signalled when a batch fully completes *)
  mutable queue : batch list;  (* live batches, submission order *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  instruments : instruments option;
}

let instruments_of obs =
  Option.map
    (fun reg ->
      {
        tasks =
          Registry.counter reg ~help:"items completed by pooled fan-outs"
            ~unit_:"items" "par.tasks";
        chunks =
          Registry.counter reg ~help:"chunks executed by the domain pool"
            ~unit_:"chunks" "par.chunks";
        grain =
          Registry.gauge reg ~help:"grain (items per chunk) of the most recent fan-out"
            ~unit_:"items" "par.grain";
        chunk_ms =
          Registry.histogram reg ~help:"wall-clock time of one pool chunk"
            ~unit_:"ms" "par.chunk.ms";
      })
    obs

(* Forward declaration dance is avoided by defining the chunk-stealing
   step once: under [t.mutex], find a batch with unassigned chunks. *)
let rec find_runnable = function
  | [] -> None
  | b :: rest -> if b.next < b.total then Some b else find_runnable rest

(* Execute one chunk of [b] (caller holds [t.mutex]; returns with it
   held). Completion of the whole batch broadcasts [finished]. *)
let execute_one t b =
  let i = b.next in
  b.next <- i + 1;
  Mutex.unlock t.mutex;
  let t0 = Mclock.now_ns () in
  b.run i;
  (match t.instruments with
  | None -> ()
  | Some ins ->
      Metric.incr ins.chunks;
      Metric.observe ins.chunk_ms (Mclock.ms_since t0));
  Mutex.lock t.mutex;
  b.completed <- b.completed + 1;
  if b.completed = b.total then begin
    t.queue <- List.filter (fun b' -> b' != b) t.queue;
    Condition.broadcast t.finished
  end

let worker t () =
  Mutex.lock t.mutex;
  let rec loop () =
    match find_runnable t.queue with
    | Some b ->
        execute_one t b;
        loop ()
    | None ->
        if t.stop then Mutex.unlock t.mutex
        else begin
          Condition.wait t.work t.mutex;
          loop ()
        end
  in
  loop ()

let create ?obs ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  (match obs with
  | None -> ()
  | Some reg ->
      Metric.set
        (Registry.gauge reg ~help:"domains available to the pool"
           ~unit_:"domains" "par.pool.domains")
        (float_of_int domains));
  let t =
    {
      domains;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queue = [];
      stop = false;
      workers = [];
      instruments = instruments_of obs;
    }
  in
  (* The submitting thread participates, so [domains - 1] spawns; with
     [domains = 1] the pool is a plain sequential loop and no Domain is
     ever created. *)
  if domains > 1 then
    t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (worker t));
  t

let domains t = t.domains

(* Grain heuristic: a chunk must amortize the pool's per-chunk overhead
   (one mutex round trip plus a cache-cold start, microseconds), while
   leaving enough chunks for the help-while-wait scheduler to balance
   cost skew across domains. Four chunks per domain is the sweet spot
   measured in bench/smoke.ml for the DP fan-outs: coarser grains
   starve domains when per-item cost is skewed (the multi-measure
   error-curve cells grow with the budget coordinate), finer grains pay
   pool overhead per item. *)
let chunks_per_domain = 4

let default_grain ~items ~domains =
  if items <= 0 then 1
  else Stdlib.max 1 (items / (Stdlib.max 1 domains * chunks_per_domain))

(* Submit [total] chunks and help until they are all done. The helper
   loop also steals chunks of other live batches: a worker blocked here
   on a nested submit keeps the pool making progress, so nesting cannot
   deadlock. *)
let run_batch t ~total run =
  let b = { run; total; next = 0; completed = 0 } in
  Mutex.lock t.mutex;
  if t.stop then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool: submit after shutdown"
  end;
  t.queue <- t.queue @ [ b ];
  Condition.broadcast t.work;
  let rec help () =
    if b.completed = b.total then Mutex.unlock t.mutex
    else
      match find_runnable t.queue with
      | Some b' ->
          execute_one t b';
          help ()
      | None ->
          Condition.wait t.finished t.mutex;
          help ()
  in
  help ()

let map_chunked ?(grain = 1) t n f =
  if grain < 1 then invalid_arg "Pool.map_chunked: grain must be >= 1";
  if n < 0 then invalid_arg "Pool.map_chunked: negative size";
  if t.stop then invalid_arg "Pool: submit after shutdown";
  if n = 0 then [||]
  else if t.domains = 1 then
    (* The calling domain alone: index order, so the first task to
       raise is the lowest-indexed one, and no slot table or failure
       lock is needed. *)
    Array.init n f
  else begin
    let out = Array.make n None in
    let failure = ref None in
    let fail_mutex = Mutex.create () in
    let nchunks = (n + grain - 1) / grain in
    let run k =
      let lo = k * grain and hi = Stdlib.min n ((k + 1) * grain) in
      try
        for i = lo to hi - 1 do
          out.(i) <- Some (f i)
        done
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock fail_mutex;
        (match !failure with
        | Some (k0, _, _) when k0 <= k -> ()
        | _ -> failure := Some (k, e, bt));
        Mutex.unlock fail_mutex
    in
    (match t.instruments with
    | None -> ()
    | Some ins -> Metric.set ins.grain (float_of_int grain));
    run_batch t ~total:nchunks run;
    (match t.instruments with
    | None -> ()
    | Some ins -> Metric.incr ~by:n ins.tasks);
    (match !failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.map (function Some v -> v | None -> assert false) out
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join ws
