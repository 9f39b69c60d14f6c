(* Flat-vs-reference kernel equivalence: the flat memo layouts of
   Minmax_dp and Md_dp (docs/KERNELS.md) must return bit-identical
   results — max_err bits, synopsis, dp_states — to the original
   tuple-keyed Hashtbl kernels, across random signals, budgets,
   metrics, split strategies, the dense and spill layouts, and pool
   sizes 1 and 4; a dense Minmax_dp solve allocates nothing per state.
   Plus the grain knob of the pool fan-out. *)

module Pool = Wavesyn_par.Pool
module Minmax_dp = Wavesyn_core.Minmax_dp
module Md_dp = Wavesyn_core.Md_dp
module Approx_abs = Wavesyn_core.Approx_abs
module Approx_additive = Wavesyn_core.Approx_additive
module Metrics = Wavesyn_synopsis.Metrics
module Synopsis = Wavesyn_synopsis.Synopsis
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng
module Metric = Wavesyn_obs.Metric
module Registry = Wavesyn_obs.Registry

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let with_pool ~domains f =
  let p = Pool.create ~domains () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* Bit-level float equality: NaN = NaN, -0. <> 0. — exactly the
   "same bits" contract of docs/KERNELS.md. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let signal rng n =
  Array.init n (fun _ ->
      let v = (Prng.float rng 200.) -. 100. in
      (* a sprinkle of exact zeros exercises the nonzero-coefficient
         caps and the forced-set edge cases *)
      if Prng.float rng 1. < 0.15 then 0. else v)

(* --- Minmax_dp: Flat vs Reference --- *)

(* Few distinct levels: many equal and zero coefficients, so the DP
   meets exact ties between splits and between keeping and dropping a
   coefficient, where only the tie-break rules decide. *)
let coarse_signal rng n = Array.init n (fun _ -> float_of_int (Prng.int rng 4))

(* n up to 32 with small budgets, plus n in {64, 128} with budgets
   from a tight n/8 to n + 3 (above the root's coefficient count, so
   the root cap clamps it), plus tie-prone coarse signals. *)
let minmax_cases rng =
  let cases gen ns budgets =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun metric ->
            List.map (fun budget -> (gen rng n, budget, metric)) (budgets n))
          [ Metrics.Abs; Metrics.Rel { sanity = 5. } ])
      ns
  in
  let small = cases signal [ 8; 16; 32 ] (fun n -> [ 0; 1; 3; n / 2 ]) in
  let large = cases signal [ 64; 128 ] (fun n -> [ n / 8; n - 1; n + 3 ]) in
  let coarse = cases coarse_signal [ 8; 32 ] (fun n -> [ 1; n / 4; n / 2 ]) in
  small @ large @ coarse

let check_minmax_pair name (r_flat : Minmax_dp.result) (r_ref : Minmax_dp.result)
    =
  check (name ^ ": max_err bits") true (same_bits r_flat.max_err r_ref.max_err);
  check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis);
  checki (name ^ ": dp_states") r_ref.dp_states r_flat.dp_states

(* Every case under both split strategies and cap_budget on and off,
   for the reference kernel and the flat kernel's dense and spill
   layouts ([dense_limit:1] forces spill). [on_state] must fire
   exactly [dp_states] times in each. The uncapped linear scan at
   n = 128 with a budget of n/2 or more is left out: its ~1.4M states
   take the reference kernel over ten seconds, and n = 64 covers that
   combination. *)
let test_minmax_flat_vs_reference () =
  let rng = Prng.create ~seed:41 in
  List.iter
    (fun (data, budget, metric) ->
      let n = Array.length data in
      List.iter
        (fun split ->
          List.iter
            (fun cap_budget ->
              if
                cap_budget || split = Minmax_dp.Binary_search || n < 128
                || budget < n / 2
              then begin
                let solve impl ?dense_limit () =
                  let fired = ref 0 in
                  let r =
                    Minmax_dp.solve ~split ~cap_budget ~impl ?dense_limit
                      ~on_state:(fun () -> incr fired)
                      ~data ~budget metric
                  in
                  (r, !fired)
                in
                let name =
                  Printf.sprintf "n=%d b=%d %s cap=%b" n budget
                    (match split with
                    | Minmax_dp.Binary_search -> "bisect"
                    | Minmax_dp.Linear_scan -> "scan")
                    cap_budget
                in
                let r_ref, fired_ref = solve Minmax_dp.Reference () in
                checki (name ^ ": reference on_state") r_ref.dp_states
                  fired_ref;
                List.iter
                  (fun (layout, dense_limit) ->
                    let r, fired = solve Minmax_dp.Flat ?dense_limit () in
                    check_minmax_pair (name ^ layout) r r_ref;
                    checki (name ^ layout ^ ": on_state") r.dp_states fired)
                  [ (" dense", None); (" spill", Some 1) ]
              end)
            [ true; false ])
        [ Minmax_dp.Binary_search; Minmax_dp.Linear_scan ])
    (minmax_cases rng)

(* The spill layout (rows allocated lazily above dense_limit) must be
   indistinguishable from the dense one; dense_limit:1 forces every
   table into the spill path. *)
let test_minmax_spill_layout () =
  let rng = Prng.create ~seed:43 in
  List.iter
    (fun (data, budget, metric) ->
      let dense = Minmax_dp.solve ~impl:Flat ~data ~budget metric in
      let spill =
        Minmax_dp.solve ~impl:Flat ~dense_limit:1 ~data ~budget metric
      in
      check_minmax_pair "dense vs spill" spill dense)
    (minmax_cases rng)

(* A dense flat solve allocates its table (straight into the major
   heap at these sizes) and O(n) bookkeeping, but nothing per DP
   state: minor allocation stays under a bound linear in n that the
   state count (tens of thousands here) would blow through at even one
   word per state. *)
let test_minmax_flat_allocation () =
  let rng = Prng.create ~seed:73 in
  List.iter
    (fun (n, budget, metric) ->
      let data = signal rng n in
      let solve () = Minmax_dp.solve ~impl:Minmax_dp.Flat ~data ~budget metric in
      ignore (solve ());
      let w0 = Gc.minor_words () in
      let r = solve () in
      let words = Gc.minor_words () -. w0 in
      let bound = 64 * n in
      check
        (Printf.sprintf "n=%d b=%d: %.0f minor words (%d states) < %d" n budget
           words r.dp_states bound)
        true
        (words < float_of_int bound);
      check
        (Printf.sprintf "n=%d b=%d: more states than the bound" n budget)
        true (r.dp_states > bound))
    [ (256, 32, Metrics.Abs); (64, 8, Metrics.Rel { sanity = 5. }) ]

let test_budget_for_flat_vs_reference () =
  let rng = Prng.create ~seed:47 in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          for _ = 1 to 10 do
            let data = signal rng 32 in
            let target = Prng.float rng 30. in
            let run impl =
              Minmax_dp.budget_for ~pool:p ~impl ~data ~target Metrics.Abs
            in
            let s_ref = run Minmax_dp.Reference in
            let s_flat = run Minmax_dp.Flat in
            let name = Printf.sprintf "budget_for domains=%d" domains in
            check (name ^ ": feasible") true (s_flat.feasible = s_ref.feasible);
            check_minmax_pair name s_flat.best s_ref.best
          done))
    [ 1; 4 ]

(* --- Md_dp solvers: Flat vs Reference --- *)

let test_approx_abs_flat_vs_reference () =
  let rng = Prng.create ~seed:53 in
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          List.iter
            (fun n ->
              let data = signal rng n in
              let nd = Ndarray.of_flat_array ~dims:[| n |] data in
              let run impl =
                Approx_abs.solve ~pool:p ~impl ~data:nd ~budget:(n / 4)
                  ~epsilon:0.3 ()
              in
              let r_ref = run Md_dp.Reference in
              let r_flat = run Md_dp.Flat in
              let name = Printf.sprintf "approx_abs n=%d domains=%d" n domains in
              check (name ^ ": max_err bits") true
                (same_bits r_flat.max_err r_ref.max_err);
              check (name ^ ": tau bits") true (same_bits r_flat.tau r_ref.tau);
              check (name ^ ": synopsis") true (r_flat.synopsis = r_ref.synopsis);
              checki (name ^ ": dp_states") r_ref.dp_states r_flat.dp_states;
              checki (name ^ ": sweeps") r_ref.sweeps r_flat.sweeps)
            [ 16; 32 ]))
    [ 1; 4 ]

let test_approx_abs_2d_flat_vs_reference () =
  let rng = Prng.create ~seed:59 in
  let nd =
    Ndarray.of_flat_array ~dims:[| 8; 8 |]
      (Array.init 64 (fun _ -> Prng.float rng 100.))
  in
  let run impl = Approx_abs.solve ~impl ~data:nd ~budget:10 ~epsilon:0.4 () in
  let r_ref = run Md_dp.Reference in
  let r_flat = run Md_dp.Flat in
  check "2d: max_err bits" true (same_bits r_flat.max_err r_ref.max_err);
  check "2d: synopsis" true (r_flat.synopsis = r_ref.synopsis);
  checki "2d: dp_states" r_ref.dp_states r_flat.dp_states

let test_approx_additive_flat_vs_reference () =
  let rng = Prng.create ~seed:61 in
  List.iter
    (fun metric ->
      List.iter
        (fun n ->
          let data = signal rng n in
          let run impl =
            Approx_additive.solve_1d ~impl ~data ~budget:(n / 4) ~epsilon:0.2
              metric
          in
          let err_ref, syn_ref = run Md_dp.Reference in
          let err_flat, syn_flat = run Md_dp.Flat in
          let name = Printf.sprintf "additive n=%d" n in
          check (name ^ ": measured bits") true (same_bits err_flat err_ref);
          check (name ^ ": synopsis") true (syn_flat = syn_ref))
        [ 16; 32 ])
    [ Metrics.Abs; Metrics.Rel { sanity = 3. } ]

(* A shared prebuilt skeleton must not change anything. *)
let test_md_dp_shared_skeleton () =
  let rng = Prng.create ~seed:67 in
  let data = signal rng 32 in
  let nd = Ndarray.of_flat_array ~dims:[| 32 |] data in
  let tree = Wavesyn_haar.Md_tree.of_data nd in
  let sk = Md_dp.skeleton ~tree in
  let wavelet = Wavesyn_haar.Md_tree.wavelet tree in
  let cfg =
    {
      Md_dp.coeff_value = (fun pos -> Ndarray.get_flat wavelet pos);
      round_error = Fun.id;
      key_of_error = (fun e -> Hashtbl.hash (Int64.bits_of_float e));
      forced = (fun _ -> false);
      leaf_denominator = (fun _ -> 1.);
    }
  in
  List.iter
    (fun budget ->
      let with_sk = Md_dp.run ~skeleton:sk ~tree ~budget cfg in
      let without = Md_dp.run ~tree ~budget cfg in
      match (with_sk, without) with
      | Some a, Some b ->
          check "skeleton: value bits" true (same_bits a.value b.value);
          check "skeleton: retained" true (a.retained = b.retained);
          checki "skeleton: dp_states" b.dp_states a.dp_states
      | _ -> Alcotest.fail "unexpected infeasible")
    [ 0; 3; 8 ]

(* --- grain --- *)

let test_default_grain () =
  checki "zero items" 1 (Pool.default_grain ~items:0 ~domains:4);
  checki "few items" 1 (Pool.default_grain ~items:7 ~domains:4);
  checki "4 chunks per domain" 8 (Pool.default_grain ~items:128 ~domains:4);
  checki "single domain" 25 (Pool.default_grain ~items:100 ~domains:1)

let test_grain_identity () =
  List.iter
    (fun domains ->
      with_pool ~domains (fun p ->
          List.iter
            (fun grain ->
              List.iter
                (fun n ->
                  let got = Pool.map_chunked ~grain p n (fun i -> (i * 7) + 1) in
                  let want = Array.init n (fun i -> (i * 7) + 1) in
                  check
                    (Printf.sprintf "domains=%d grain=%d n=%d" domains grain n)
                    true (got = want))
                [ 0; 1; 5; 64; 129 ])
            [ 1; 3; 16; 1000 ]))
    [ 1; 4 ]

let test_grain_instruments () =
  let reg = Registry.create () in
  let p = Pool.create ~obs:reg ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  ignore (Pool.map_chunked ~grain:8 p 40 (fun i -> i));
  (* 40 items in chunks of 8 -> 5 chunks; par.tasks counts items. *)
  checki "par.tasks = items" 40
    (Metric.counter_value (Registry.counter reg "par.tasks"));
  checki "par.chunks = ceil(items/grain)" 5
    (Metric.counter_value (Registry.counter reg "par.chunks"));
  check "par.grain = grain" true
    (Metric.gauge_value (Registry.gauge reg "par.grain") = 8.)

let () =
  Alcotest.run "kernels"
    [
      ( "minmax flat",
        [
          Alcotest.test_case "flat = reference (bit-identical)" `Quick
            test_minmax_flat_vs_reference;
          Alcotest.test_case "dense = spill layout" `Quick
            test_minmax_spill_layout;
          Alcotest.test_case "flat solve allocates O(n), not per state" `Quick
            test_minmax_flat_allocation;
          Alcotest.test_case "budget_for flat = reference, pooled" `Quick
            test_budget_for_flat_vs_reference;
        ] );
      ( "md flat",
        [
          Alcotest.test_case "approx-abs flat = reference, pooled" `Quick
            test_approx_abs_flat_vs_reference;
          Alcotest.test_case "approx-abs 2d flat = reference" `Quick
            test_approx_abs_2d_flat_vs_reference;
          Alcotest.test_case "approx-additive flat = reference" `Quick
            test_approx_additive_flat_vs_reference;
          Alcotest.test_case "shared skeleton is inert" `Quick
            test_md_dp_shared_skeleton;
        ] );
      ( "grain",
        [
          Alcotest.test_case "default_grain arithmetic" `Quick
            test_default_grain;
          Alcotest.test_case "grain never changes results" `Quick
            test_grain_identity;
          Alcotest.test_case "par.tasks/chunks/grain instruments" `Quick
            test_grain_instruments;
        ] );
    ]
