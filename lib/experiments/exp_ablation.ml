module Minmax_dp = Wavesyn_core.Minmax_dp
module Signal = Wavesyn_datagen.Signal
module Metrics = Wavesyn_synopsis.Metrics
module Prng = Wavesyn_util.Prng
module Table = Wavesyn_util.Table

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let e12_ablations () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "E12: ablations of the Section 3.1 design choices\n\
     (random-walk data, B = 12; every variant returns the same optimum)\n";
  let rng = Prng.create ~seed:7009 in
  let metric = Metrics.Abs in
  let budget = 12 in
  List.iter
    (fun n ->
      let data = Signal.random_walk ~rng ~n ~step:3. in
      let table =
        Table.create ~columns:[ "variant"; "max err"; "time(s)"; "states/cells" ]
      in
      let row name err dt states =
        Table.add_row table
          [ name; Printf.sprintf "%.5f" err; Printf.sprintf "%.4f" dt; states ]
      in
      let r, dt =
        time (fun () ->
            Minmax_dp.solve ~split:Minmax_dp.Binary_search ~cap_budget:true
              ~data ~budget metric)
      in
      row "binary split + cap (paper)" r.Minmax_dp.max_err dt
        (string_of_int r.Minmax_dp.dp_states);
      let r, dt =
        time (fun () ->
            Minmax_dp.solve ~split:Minmax_dp.Linear_scan ~cap_budget:true ~data
              ~budget metric)
      in
      row "linear split + cap" r.Minmax_dp.max_err dt
        (string_of_int r.Minmax_dp.dp_states);
      let r, dt =
        time (fun () ->
            Minmax_dp.solve ~split:Minmax_dp.Binary_search ~cap_budget:false
              ~data ~budget metric)
      in
      row "binary split, no cap" r.Minmax_dp.max_err dt
        (string_of_int r.Minmax_dp.dp_states);
      let r, dt = time (fun () -> Minmax_dp.solve ~data ~budget metric) in
      row "bottom-up (O(NB) workspace)" r.Minmax_dp.max_err dt
        (Printf.sprintf "working %d / total %d" r.Minmax_dp.working_cells
           r.Minmax_dp.dp_states);
      Buffer.add_string buf
        (Table.to_string ~title:(Printf.sprintf "\nN = %d:" n) table))
    [ 128; 256 ];
  Buffer.add_string buf
    "\nExpected shape: identical optima everywhere; the budget cap shrinks the\n\
     state count; the bottom-up kernel (the default, in every row) keeps\n\
     its working set a small fraction of the cells it computes (the\n\
     paper's O(NB) vs O(N^2 B)).\n";
  Buffer.contents buf
