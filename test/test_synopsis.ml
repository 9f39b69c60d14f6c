(* Tests for the synopsis representation, metrics and range queries. *)

module Haar1d = Wavesyn_haar.Haar1d
module Synopsis = Wavesyn_synopsis.Synopsis
module Metrics = Wavesyn_synopsis.Metrics
module Range_query = Wavesyn_synopsis.Range_query
module Quantiles = Wavesyn_aqp.Quantiles
module Ndarray = Wavesyn_util.Ndarray
module Prng = Wavesyn_util.Prng
module Float_util = Wavesyn_util.Float_util

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)

let paper_data = [| 2.; 2.; 0.; 2.; 3.; 5.; 4.; 4. |]
let paper_wavelet = Haar1d.decompose paper_data

let full_synopsis =
  Synopsis.of_wavelet ~wavelet:paper_wavelet [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* --- Synopsis --- *)

let test_make_validates () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Synopsis.make: coefficient index out of range")
    (fun () -> ignore (Synopsis.make ~n:8 [ (9, 1.) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Synopsis.make: duplicate coefficient index")
    (fun () -> ignore (Synopsis.make ~n:8 [ (3, 1.); (3, 2.) ]));
  Alcotest.check_raises "non pow2 domain"
    (Invalid_argument "Synopsis.make: domain size must be a power of two")
    (fun () -> ignore (Synopsis.make ~n:6 []))

let test_zero_coeffs_dropped () =
  let s = Synopsis.make ~n:8 [ (1, 0.); (2, 3.) ] in
  checki "size counts only non-zeros" 1 (Synopsis.size s);
  check "zero not member" false (Synopsis.mem s 1);
  check "non-zero member" true (Synopsis.mem s 2)

let test_full_reconstruction () =
  let approx = Synopsis.reconstruct full_synopsis in
  Array.iteri (fun i d -> checkf (Printf.sprintf "cell %d" i) d approx.(i)) paper_data

let test_point_matches_reconstruct () =
  let s = Synopsis.of_wavelet ~wavelet:paper_wavelet [ 0; 1; 5 ] in
  let approx = Synopsis.reconstruct s in
  for i = 0 to 7 do
    checkf (Printf.sprintf "point %d" i) approx.(i) (Synopsis.reconstruct_point s i)
  done

let test_empty_synopsis () =
  let s = Synopsis.make ~n:8 [] in
  checki "empty size" 0 (Synopsis.size s);
  check "reconstruct zeros" true
    (Array.for_all (fun x -> x = 0.) (Synopsis.reconstruct s))

let test_serialization_roundtrip () =
  let s = Synopsis.of_wavelet ~wavelet:paper_wavelet [ 0; 2; 6 ] in
  let s' = Synopsis.of_string (Synopsis.to_string s) in
  checki "same n" (Synopsis.n s) (Synopsis.n s');
  check "same coeffs" true (Synopsis.coeffs s = Synopsis.coeffs s')

let test_serialization_rejects_garbage () =
  check "bad input raises" true
    (try
       ignore (Synopsis.of_string "8 foo:bar");
       false
     with Failure _ -> true)

let test_describe () =
  let s = Synopsis.make ~n:8 [ (0, 2.75); (1, -1.25) ] in
  check "describe" true (Synopsis.describe s = "{c0=2.75; c1=-1.25}")

let test_md_synopsis_roundtrip () =
  let rng = Prng.create ~seed:8 in
  let data = Ndarray.init ~dims:[| 4; 4 |] (fun _ -> Prng.float rng 10.) in
  let tree = Wavesyn_haar.Md_tree.of_data data in
  let all = Wavesyn_haar.Md_tree.all_coeffs tree in
  let syn = Synopsis.Md.of_tree tree all in
  let approx = Synopsis.Md.reconstruct syn in
  check "full md reconstruction" true (Ndarray.equal ~eps:1e-8 data approx);
  (* cell reconstruction agrees with full reconstruction *)
  Ndarray.iteri
    (fun idx v -> checkf "md cell" v (Synopsis.Md.reconstruct_cell syn idx))
    approx

let test_md_validates () =
  Alcotest.check_raises "md out of range"
    (Invalid_argument "Synopsis.Md.make: coefficient position out of range")
    (fun () -> ignore (Synopsis.Md.make ~dims:[| 2; 2 |] [ (4, 1.) ]))

(* Md.make checks the shape from the dims alone, with Haar_md.side's
   messages, and allocates no cube: a 256x256 make with 3 coefficients
   allocates as many bytes as a 2x2 one. Gc.allocated_bytes counts the
   major heap too, where a cube-sized array would go directly. *)
let test_md_make_checks_dims () =
  List.iter
    (fun (msg, dims) ->
      Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
          ignore (Synopsis.Md.make ~dims [])))
    [
      ("Haar_md: dimensions must all be equal", [| 4; 8 |]);
      ("Haar_md: dimensions must be powers of two", [| 6; 6 |]);
      ("Ndarray: dimension must be >= 1", [| 0; 0 |]);
      ("Ndarray: empty shape", [||]);
    ];
  let coeffs = [ (0, 1.); (1, -2.); (3, 0.5) ] in
  let bytes dims =
    ignore (Synopsis.Md.make ~dims coeffs);
    let b0 = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (Synopsis.Md.make ~dims coeffs));
    Gc.allocated_bytes () -. b0
  in
  let small = bytes [| 2; 2 |] and large = bytes [| 256; 256 |] in
  check
    (Printf.sprintf "%.0f bytes at 2x2, %.0f at 256x256" small large)
    true
    (small = large && large < 2048.)

(* --- Metrics --- *)

let test_denominator () =
  checkf "abs" 1. (Metrics.denominator Metrics.Abs 42.);
  checkf "rel large" 42. (Metrics.denominator (Metrics.Rel { sanity = 5. }) 42.);
  checkf "rel small" 5. (Metrics.denominator (Metrics.Rel { sanity = 5. }) 2.);
  checkf "rel negative" 42. (Metrics.denominator (Metrics.Rel { sanity = 5. }) (-42.))

let test_metric_validation () =
  Alcotest.check_raises "non-positive sanity"
    (Invalid_argument "Metrics: sanity bound must be positive")
    (fun () ->
      ignore (Metrics.denominator (Metrics.Rel { sanity = 0. }) 1.))

let test_max_error () =
  let data = [| 10.; 0.; -5. |] in
  let approx = [| 9.; 2.; -5. |] in
  checkf "max abs" 2. (Metrics.max_error Metrics.Abs ~data ~approx);
  (* rel errors: 1/10, 2/1, 0/5 -> 2 *)
  checkf "max rel" 2.
    (Metrics.max_error (Metrics.Rel { sanity = 1. }) ~data ~approx)

let test_summary () =
  let data = [| 4.; 2.; 0.; 0. |] in
  let approx = [| 3.; 2.; 1.; 0. |] in
  let s = Metrics.summary ~sanity:1. ~data ~approx () in
  checkf "max_abs" 1. s.Metrics.max_abs;
  checkf "mean_abs" 0.5 s.Metrics.mean_abs;
  checkf "rms" (Float.sqrt 0.5) s.Metrics.rms;
  checki "argmax_abs" 0 s.Metrics.argmax_abs;
  checki "argmax_rel is the small value" 2 s.Metrics.argmax_rel

let test_length_mismatch () =
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Metrics: data / approximation length mismatch")
    (fun () ->
      ignore (Metrics.max_error Metrics.Abs ~data:[| 1. |] ~approx:[| 1.; 2. |]))

(* --- Range queries --- *)

let test_range_sum_exact () =
  checkf "full" 22. (Range_query.range_sum_exact paper_data ~lo:0 ~hi:7);
  checkf "middle" 10. (Range_query.range_sum_exact paper_data ~lo:3 ~hi:5);
  checkf "single" 3. (Range_query.range_sum_exact paper_data ~lo:4 ~hi:4)

let test_range_sum_full_synopsis_is_exact () =
  for lo = 0 to 7 do
    for hi = lo to 7 do
      checkf
        (Printf.sprintf "range [%d,%d]" lo hi)
        (Range_query.range_sum_exact paper_data ~lo ~hi)
        (Range_query.range_sum full_synopsis ~lo ~hi)
    done
  done

let test_range_avg_and_selectivity () =
  checkf "avg" (22. /. 8.) (Range_query.range_avg full_synopsis ~lo:0 ~hi:7);
  checkf "selectivity" (10. /. 22.)
    (Range_query.selectivity full_synopsis ~lo:3 ~hi:5)

let test_range_bounds_checked () =
  Alcotest.check_raises "bad range"
    (Invalid_argument "Range_query: invalid range bounds")
    (fun () -> ignore (Range_query.range_sum full_synopsis ~lo:5 ~hi:2))

(* The query server's hot path (docs/SERVING.md): the range shapes a
   remote client can legally send, pinned on a {e thresholded} synopsis
   (retained detail coefficients partially covering the range), plus
   every empty/out-of-domain shape, which must raise — the server maps
   the exception to a structured out-of-range reply. *)
let test_range_server_hot_path_corners () =
  let syn = Synopsis.of_wavelet ~wavelet:paper_wavelet [ 0; 1; 5 ] in
  let n = Synopsis.n syn in
  (* Single-cell ranges agree with point reconstruction everywhere. *)
  for i = 0 to n - 1 do
    checkf
      (Printf.sprintf "single cell [%d,%d]" i i)
      (Synopsis.reconstruct_point syn i)
      (Range_query.range_sum syn ~lo:i ~hi:i)
  done;
  (* The full-domain range: detail coefficients cancel over their whole
     support, so only c0 contributes, n * c0. *)
  checkf "full domain is n*c0" (8. *. 2.75)
    (Range_query.range_sum syn ~lo:0 ~hi:(n - 1));
  (* Prefix sums stitch: sum[0,i] + sum[i+1,n-1] = sum[0,n-1]. *)
  for i = 0 to n - 2 do
    checkf
      (Printf.sprintf "prefix split at %d" i)
      (Range_query.range_sum syn ~lo:0 ~hi:(n - 1))
      (Range_query.range_sum syn ~lo:0 ~hi:i
      +. Range_query.range_sum syn ~lo:(i + 1) ~hi:(n - 1))
  done;
  (* Every illegal shape raises (empty lo>hi, either bound outside). *)
  List.iter
    (fun (lo, hi) ->
      Alcotest.check_raises
        (Printf.sprintf "range [%d,%d] rejected" lo hi)
        (Invalid_argument "Range_query: invalid range bounds")
        (fun () -> ignore (Range_query.range_sum syn ~lo ~hi)))
    [ (3, 2); (-1, 4); (0, 8); (8, 8); (-2, -1) ];
  (* An empty (budget-0) synopsis still answers: everything is 0. *)
  let empty = Synopsis.make ~n:8 [] in
  checkf "empty synopsis sums to zero" 0.
    (Range_query.range_sum empty ~lo:0 ~hi:7)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Synopses for the path-walk identities: random thresholdings of
   positive data (seed 42), the same over signed data so that
   reconstructions go negative and the prefix sums dip, n = 1, an
   empty synopsis, synopses without c0, one whose zero second half
   makes prefix sums meet a quantile target exactly, and the synopsis
   the benchmark's read workloads serve (MinMaxErr, absolute error,
   B = 128 over the n = 1024 Zipf vector of data seed 42). *)
let walk_cases () =
  let rng = Prng.create ~seed:42 in
  let random ?(low = 0.25) ?(drop_c0 = false) (n, budget) =
    let wavelet =
      Haar1d.decompose (Array.init n (fun _ -> Prng.float rng 8. +. low))
    in
    List.init budget (fun _ -> Prng.int rng n)
    |> List.sort_uniq compare
    |> List.filter (fun j -> not (drop_c0 && j = 0))
    |> Synopsis.of_wavelet ~wavelet
  in
  List.map random [ (1, 1); (16, 4); (16, 16); (64, 7); (64, 64); (128, 13) ]
  @ List.map (random ~low:(-4.)) [ (64, 12); (128, 40) ]
  @ [
      Synopsis.make ~n:16 [];
      Synopsis.of_wavelet ~wavelet:paper_wavelet [ 1; 5; 6 ];
      random ~drop_c0:true ~low:(-4.) (64, 20);
      Synopsis.make ~n:16 [ (0, 1.); (1, 1.) ];
      (Wavesyn_core.Minmax_dp.solve ~budget:128 Metrics.Abs
         ~data:
           (Wavesyn_datagen.Signal.zipf ~rng:(Prng.create ~seed:42) ~n:1024
              ~alpha:1.2 ~scale:100.))
        .synopsis;
    ]

(* The O(B) closed form: every retained coefficient's term, recomputed
   from its Haar support, summed in ascending index order. *)
let reference_range_sum syn ~lo ~hi =
  let n = Synopsis.n syn in
  let overlap a b c d = max 0 (min b d - max a c) in
  List.fold_left
    (fun acc (j, c) ->
      acc
      +.
      if j = 0 then c *. float_of_int (hi - lo + 1)
      else begin
        let a, b = Haar1d.support ~n j in
        let mid = (a + b) / 2 in
        c *. float_of_int (overlap lo (hi + 1) a mid - overlap lo (hi + 1) mid b)
      end)
    0. (Synopsis.coeffs syn)

(* Every range up to n = 128; beyond, every prefix and single cell plus
   5000 seeded ranges. *)
let ranges_of rng n =
  if n <= 128 then
    List.concat
      (List.init n (fun lo -> List.init (n - lo) (fun d -> (lo, lo + d))))
  else
    List.init n (fun i -> (0, i))
    @ List.init n (fun i -> (i, i))
    @ List.init 5000 (fun _ ->
          let a = Prng.int rng n and b = Prng.int rng n in
          (min a b, max a b))

(* The supports a synopsis carries are each coefficient's Haar
   support, and the range sum walking the error-tree paths of the
   range's ends is bit-identical to the closed form over all B
   coefficients. *)
let test_range_sum_supports () =
  let rng = Prng.create ~seed:43 in
  List.iter
    (fun syn ->
      let n = Synopsis.n syn and budget = Synopsis.size syn in
      let s = Synopsis.supports syn in
      List.iteri
        (fun t (j, c) ->
          let a, b = Haar1d.support ~n j in
          check "support entry" true
            (s.Synopsis.index.(t) = j
            && Float.equal s.Synopsis.value.(t) c
            && s.Synopsis.start.(t) = a
            && s.Synopsis.mid.(t) = (if j = 0 then b else (a + b) / 2)
            && s.Synopsis.stop.(t) = b))
        (Synopsis.coeffs syn);
      Array.iteri
        (fun l first ->
          let below = List.filter (fun (j, _) -> j < 1 lsl l) (Synopsis.coeffs syn) in
          checki (Printf.sprintf "first slot of level %d (n=%d)" l n)
            (List.length below) first)
        s.Synopsis.level;
      checki "one level bound per level, plus B" (Float_util.log2i n + 1)
        (Array.length s.Synopsis.level);
      List.iter
        (fun (lo, hi) ->
          let a = reference_range_sum syn ~lo ~hi
          and b = Range_query.range_sum syn ~lo ~hi in
          if not (same_bits a b) then
            Alcotest.failf "range [%d, %d]: %h <> %h (n=%d b=%d)" lo hi a b n
              budget)
        (ranges_of rng n))
    (walk_cases ())

(* A point walks one root-to-leaf path; the full fold of
   [Haar1d.point_from_set] stays the reference. *)
let test_point_path_bit_identity () =
  List.iter
    (fun syn ->
      let n = Synopsis.n syn in
      for i = 0 to n - 1 do
        let a = Haar1d.point_from_set ~n (Synopsis.coeffs syn) i
        and b = Synopsis.reconstruct_point syn i in
        if not (same_bits a b) then
          Alcotest.failf "cell %d: %h <> %h (n=%d b=%d)" i a b n
            (Synopsis.size syn)
      done)
    (walk_cases ())

(* The quantile search over the path-walk prefix sums, and the
   closure-free search over the synopsis, both return what the search
   over the O(B) closed form returns, for q = 0, 1/2, 1 and seeded q —
   also where the prefix sums dip, which some case must show. *)
let test_quantile_path_bit_identity () =
  let rng = Prng.create ~seed:44 in
  let dips = ref false in
  List.iter
    (fun syn ->
      let n = Synopsis.n syn in
      let reference i = reference_range_sum syn ~lo:0 ~hi:i in
      for i = 1 to n - 1 do
        if reference i < reference (i - 1) then dips := true
      done;
      List.iter
        (fun q ->
          let want = Quantiles.search ~n ~q reference in
          if Quantiles.search ~n ~q (Quantiles.cumulative syn) <> want then
            Alcotest.failf "search over cumulative, q=%h (n=%d b=%d)" q n
              (Synopsis.size syn);
          if Quantiles.search_synopsis syn ~q <> want then
            Alcotest.failf "search_synopsis, q=%h (n=%d b=%d)" q n
              (Synopsis.size syn))
        (0. :: 0.5 :: 1. :: List.init 8 (fun _ -> Prng.float rng 1.)))
    (walk_cases ());
  check "some prefix sums dip" true !dips

module Quantile_reference = Wavesyn_oracle.Quantile_reference

(* The descent's cases: every power-of-two n from 1 to 4096, budgets
   0, 1, n/8 and n (a seeded choice of coefficients), with and without
   c0, over a positive random walk and over signed data whose prefix
   sums dip. Without c0 the total is 0, so every search refuses. *)
let descent_cases () =
  let rng = Prng.create ~seed:46 in
  List.concat_map
    (fun lg ->
      let n = 1 lsl lg in
      let walk =
        let x = ref 0. in
        Array.init n (fun _ ->
            x := Float.abs (!x +. Prng.float rng 6. -. 3.);
            !x +. 1.)
      and signed = Array.init n (fun _ -> Prng.float rng 8. -. 3.) in
      let details = Array.init (n - 1) (fun i -> i + 1) in
      Prng.shuffle rng details;
      List.concat_map
        (fun data ->
          let wavelet = Haar1d.decompose data in
          List.concat_map
            (fun b ->
              let pick k = Array.to_list (Array.sub details 0 (min k (n - 1))) in
              [
                Synopsis.of_wavelet ~wavelet (if b = 0 then [] else 0 :: pick (b - 1));
                Synopsis.of_wavelet ~wavelet (pick b);
              ])
            (List.sort_uniq compare [ 0; 1; n / 8; n ]))
        [ walk; signed ])
    (List.init 13 Fun.id)

(* The descent returns what the probe-by-probe bisection returns, for
   q = 0, 1, seeded q, and q whose target equals a probed prefix sum
   exactly (a tie, which some case must reach). *)
let test_quantile_descent_oracle () =
  let rng = Prng.create ~seed:47 in
  let ties = ref 0 in
  let compare_at syn q =
    let want =
      match Quantile_reference.prefix_crossing syn ~q with
      | -1 -> Error Quantiles.Total_not_positive
      | i -> Ok i
    in
    if Quantiles.search_synopsis syn ~q <> want then
      Alcotest.failf "q=%h (n=%d b=%d)" q (Synopsis.n syn) (Synopsis.size syn)
  in
  List.iter
    (fun syn ->
      let n = Synopsis.n syn in
      let total = Range_query.range_sum syn ~lo:0 ~hi:(n - 1) in
      let sums = ref [] in
      List.iter
        (fun q ->
          compare_at syn q;
          ignore
            (Quantile_reference.prefix_crossing syn ~q
               ~probe:(fun _ sum -> sums := sum :: !sums)))
        (0. :: 1. :: List.init 6 (fun _ -> Prng.float rng 1.));
      (* A q with [q *. total = sum], searched near [sum /. total]. *)
      List.iter
        (fun sum ->
          let q0 = sum /. total in
          match
            List.find_opt
              (fun q -> q >= 0. && q <= 1. && q *. total = sum)
              [ q0; Float.succ q0; Float.pred q0; Float.succ (Float.succ q0) ]
          with
          | None -> ()
          | Some q ->
              compare_at syn q;
              ignore
                (Quantile_reference.prefix_crossing syn ~q ~probe:(fun _ s ->
                     if s = q *. total then incr ties)))
        !sums)
    (descent_cases ());
  check "some probe meets its target exactly" true (!ties > 0)

(* The descent keeps its slots per domain: 4 domains running the same
   searches at once, over synopses of different n, get the sequential
   answers. *)
let test_quantile_descent_domains () =
  let rng = Prng.create ~seed:48 in
  let jobs =
    descent_cases ()
    |> List.filter (fun syn -> Synopsis.n syn >= 64 && Synopsis.size syn > 8)
    |> List.concat_map (fun syn ->
           List.init 4 (fun _ -> (syn, Prng.float rng 1.)))
    |> Array.of_list
  in
  let want = Array.map (fun (syn, q) -> Quantiles.search_synopsis syn ~q) jobs in
  let run d () =
    let bad = ref 0 and m = Array.length jobs in
    for r = 0 to 400 - 1 do
      for i = 0 to m - 1 do
        let k = (i + (r * 7) + (d * m / 4)) mod m in
        let syn, q = jobs.(k) in
        if Quantiles.search_synopsis syn ~q <> want.(k) then incr bad
      done
    done;
    !bad
  in
  let bad =
    List.init 4 (fun d -> Domain.spawn (run d)) |> List.map Domain.join
  in
  check
    (Printf.sprintf "mismatches per domain: %s"
       (String.concat ", " (List.map string_of_int bad)))
    true
    (List.for_all (( = ) 0) bad)

(* An infinite retained value reaches only the cells, ranges and
   quantile probes whose paths hold it; the full O(B) sums add
   [0 * inf = nan] to every answer. MinMaxErr does not retain one on
   the non-finite datasets of test_kernels.ml, and served data is
   finite, so this is a hand-made synopsis. *)
let test_non_finite_coefficient_stays_on_its_paths () =
  let syn = Synopsis.make ~n:8 [ (0, 1.); (1, 0.5); (5, Float.infinity) ] in
  checkf "point outside its support" 1.5 (Synopsis.reconstruct_point syn 0);
  check "point under it" true (Synopsis.reconstruct_point syn 2 = Float.infinity);
  checkf "range outside its support" 3. (Range_query.range_sum syn ~lo:0 ~hi:1);
  checkf "range covering its support" 6.5 (Range_query.range_sum syn ~lo:0 ~hi:4);
  check "range ending inside it" true
    (Range_query.range_sum syn ~lo:0 ~hi:2 = Float.infinity);
  check "the full fold is nan" true
    (Float.is_nan (reference_range_sum syn ~lo:0 ~hi:1)
    && Float.is_nan (Haar1d.point_from_set ~n:8 (Synopsis.coeffs syn) 0));
  (* The quantile's probe over [0, 3] holds c5 deeper on cell 3's path,
     whose halves it covers both: the full-path probe adds [inf * 0]
     and turns nan, so the bisection goes right. The descent stops at
     the probe's own level and finds the crossing at cell 2, where c5
     makes the prefix sum infinite. *)
  let nan_probes = ref 0 in
  checki "probe-by-probe bisection" 4
    (Quantile_reference.prefix_crossing syn ~q:0.5 ~probe:(fun mid sum ->
         if mid = 3 && Float.is_nan sum then incr nan_probes));
  checki "its probe at cell 3 is nan" 1 !nan_probes;
  check "the descent" true (Quantiles.search_synopsis syn ~q:0.5 = Ok 2)

(* Evaluation allocates nothing on the walk: a range sum, a point and a
   quantile search each allocate only their boxed result (a float, or
   the [Ok] block), the same number of words at n = 64, B = 8 as at
   n = 4096, B = 512. *)
let test_eval_allocation () =
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let base = words (fun () -> ()) in
  let rng = Prng.create ~seed:45 in
  let per_call (n, budget) =
    let wavelet =
      Haar1d.decompose (Array.init n (fun _ -> Prng.float rng 8. +. 0.25))
    in
    let syn =
      Synopsis.of_wavelet ~wavelet
        (0 :: List.init budget (fun _ -> 1 + Prng.int rng (n - 1))
        |> List.sort_uniq compare)
    in
    List.map
      (fun (name, f) ->
        ignore (f ());
        (name, words f -. base))
      [
        ("range_sum", fun () -> Obj.repr (Range_query.range_sum syn ~lo:(n / 8) ~hi:(n - 3)));
        ("reconstruct_point", fun () -> Obj.repr (Synopsis.reconstruct_point syn (n / 3)));
        ("search_synopsis", fun () -> Obj.repr (Quantiles.search_synopsis syn ~q:0.37));
      ]
  in
  let small = per_call (64, 8) and large = per_call (4096, 512) in
  List.iter2
    (fun (name, a) (_, b) ->
      check (Printf.sprintf "%s: %.0f words at n=64, %.0f at n=4096" name a b)
        true
        (a = b && a <= 2.))
    small large

(* The rank index answers, for every cell j, the slot a linear scan of
   [index] finds (or -1), over the descent's cases: every power-of-two
   n from 1 to 4096, budgets 0, 1, n/8 and n, with and without c0, the
   empty synopsis among them. [mem] agrees, and refuses indices
   outside the domain. *)
let test_rank_index () =
  List.iter
    (fun syn ->
      let n = Synopsis.n syn in
      let s = Synopsis.supports syn in
      let index = s.Synopsis.index in
      checki (Printf.sprintf "one rank entry per 32 cells (n=%d)" n)
        ((n + 31) / 32)
        (Array.length s.Synopsis.rank);
      for j = 0 to n - 1 do
        let want = ref (-1) in
        Array.iteri (fun t i -> if i = j then want := t) index;
        if Synopsis.slot s j <> !want then
          Alcotest.failf "cell %d: slot %d, scan %d (n=%d b=%d)" j
            (Synopsis.slot s j) !want n (Synopsis.size syn);
        if Synopsis.mem syn j <> (!want >= 0) then
          Alcotest.failf "cell %d: mem (n=%d b=%d)" j n (Synopsis.size syn)
      done;
      check "mem outside the domain" false
        (Synopsis.mem syn (-1) || Synopsis.mem syn n))
    (descent_cases ())

(* [make] allocates exactly its layout and nothing else: five arrays
   of the k retained entries (none when k = 0), the [log2 n + 1]-entry
   level array, a 7-word supports record and the 4-word synopsis, all
   with their headers (the [layout] words), plus the rank index:
   ceil(n / 32) words, its header and its own record field. Every block
   here is small enough for the minor heap, where [Gc.minor_words]
   counts it. *)
let test_make_allocation () =
  let words f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let base = words (fun () -> ()) in
  List.iter
    (fun (n, k) ->
      let coeffs =
        List.init k (fun t -> (t * (n / max 1 k), 1.5 +. float_of_int t))
      in
      let layout =
        (if k = 0 then 13 else (5 * k) + 18) + Float_util.log2i n
      in
      ignore (Synopsis.make ~n coeffs);
      let got = words (fun () -> Synopsis.make ~n coeffs) -. base in
      let want = layout + ((n + 31) / 32) + 2 in
      check
        (Printf.sprintf "n=%d k=%d: %.0f words, want %d" n k got want)
        true
        (got = float_of_int want))
    [ (1, 0); (1, 1); (8, 3); (32, 4); (32, 32); (64, 8); (1024, 128);
      (4096, 0); (4096, 40); (4096, 255) ]

let test_selectivity_zero_total () =
  let s = Synopsis.make ~n:8 [] in
  checkf "zero total" 0. (Range_query.selectivity s ~lo:0 ~hi:3)

let test_md_range_sum_full_synopsis () =
  let rng = Prng.create ~seed:9 in
  let data = Ndarray.init ~dims:[| 8; 8 |] (fun _ -> Prng.float rng 10. -. 5.) in
  let tree = Wavesyn_haar.Md_tree.of_data data in
  let syn = Synopsis.Md.of_tree tree (Wavesyn_haar.Md_tree.all_coeffs tree) in
  List.iter
    (fun ranges ->
      let exact = Range_query.range_sum_exact_md data ~ranges in
      let approx = Range_query.range_sum_md syn ~ranges in
      check
        (Printf.sprintf "md range (%g vs %g)" exact approx)
        true
        (Float_util.approx_equal ~eps:1e-6 exact approx))
    [
      [| (0, 7); (0, 7) |];
      [| (0, 0); (0, 0) |];
      [| (2, 5); (1, 6) |];
      [| (3, 3); (0, 7) |];
      [| (1, 2); (3, 3) |];
    ]

let prop_of_string_never_crashes =
  (* Fuzz: arbitrary strings either parse or raise Failure /
     Invalid_argument - never anything else. *)
  QCheck.Test.make ~name:"of_string total on garbage" ~count:300
    QCheck.(string_of_size (Gen.int_range 0 40))
    (fun s ->
      match Synopsis.of_string s with
      | (_ : Synopsis.t) -> true
      | exception Failure _ -> true
      | exception Invalid_argument _ -> true)

(* --- wavelet-domain marginalization --- *)

module Marginal = Wavesyn_synopsis.Marginal
module Md_tree = Wavesyn_haar.Md_tree

let test_marginal_full_synopsis_exact () =
  let rng = Prng.create ~seed:71 in
  let data = Ndarray.init ~dims:[| 8; 8 |] (fun _ -> Prng.float rng 10. -. 5.) in
  let tree = Md_tree.of_data data in
  let syn = Synopsis.Md.of_tree tree (Md_tree.all_coeffs tree) in
  List.iter
    (fun dim ->
      let m = Marginal.sum_out_2d syn ~dim in
      let approx = Synopsis.reconstruct m in
      let exact = Marginal.marginal_exact data ~dim in
      Array.iteri
        (fun i x ->
          check
            (Printf.sprintf "dim %d cell %d" dim i)
            true
            (Float_util.approx_equal ~eps:1e-8 x approx.(i)))
        exact)
    [ 0; 1 ]

let test_marginal_2x2_by_hand () =
  let data = Ndarray.of_flat_array ~dims:[| 2; 2 |] [| 1.; 2.; 3.; 4. |] in
  let tree = Md_tree.of_data data in
  let syn = Synopsis.Md.of_tree tree (Md_tree.all_coeffs tree) in
  (* Sum over rows (dim 0): marginal over columns = [4, 6]. *)
  let m = Synopsis.reconstruct (Marginal.sum_out_2d syn ~dim:0) in
  checkf "col 0" 4. m.(0);
  checkf "col 1" 6. m.(1);
  (* Sum over columns (dim 1): marginal over rows = [3, 7]. *)
  let m = Synopsis.reconstruct (Marginal.sum_out_2d syn ~dim:1) in
  checkf "row 0" 3. m.(0);
  checkf "row 1" 7. m.(1)

let test_marginal_validation () =
  let syn = Synopsis.Md.make ~dims:[| 2; 2 |] [] in
  Alcotest.check_raises "bad dim" (Invalid_argument "Marginal: dim must be 0 or 1")
    (fun () -> ignore (Marginal.sum_out_2d syn ~dim:2))

let prop_marginal_commutes =
  (* marginal (reconstruct synopsis) = reconstruct (marginal synopsis),
     for ANY retained subset - the coefficient-domain roll-up is exact. *)
  QCheck.Test.make ~name:"marginalization commutes with reconstruction" ~count:40
    QCheck.(
      pair
        (array_of_size (Gen.return 16) (float_range (-10.) 10.))
        (pair (int_bound 1) (int_bound 15)))
    (fun (flat, (dim, keep_mask)) ->
      let data = Ndarray.of_flat_array ~dims:[| 4; 4 |] flat in
      let tree = Md_tree.of_data data in
      let all = Md_tree.all_coeffs tree in
      let some = List.filteri (fun i _ -> (keep_mask lsr (i mod 4)) land 1 = 1 || i mod 5 = 0) all in
      let syn = Synopsis.Md.make ~dims:[| 4; 4 |] some in
      let recon = Synopsis.Md.reconstruct syn in
      let lhs = Marginal.marginal_exact recon ~dim in
      let rhs = Synopsis.reconstruct (Marginal.sum_out_2d syn ~dim) in
      Array.for_all2 (fun a b -> Float_util.approx_equal ~eps:1e-7 a b) lhs rhs)

let prop_range_sum_matches_reconstruction =
  QCheck.Test.make ~name:"synopsis range sum = sum of reconstruction" ~count:60
    QCheck.(
      triple
        (array_of_size (Gen.return 16) (float_range (-50.) 50.))
        (int_bound 15) (int_bound 15))
    (fun (data, a, b) ->
      let lo = Stdlib.min a b and hi = Stdlib.max a b in
      let w = Haar1d.decompose data in
      let syn = Synopsis.of_wavelet ~wavelet:w [ 0; 1; 3; 7; 9 ] in
      let approx = Synopsis.reconstruct syn in
      let direct = Range_query.range_sum_exact approx ~lo ~hi in
      let via_syn = Range_query.range_sum syn ~lo ~hi in
      Float_util.approx_equal ~eps:1e-6 direct via_syn)

let prop_md_range_matches_reconstruction =
  QCheck.Test.make ~name:"md synopsis range sum = sum of reconstruction" ~count:40
    QCheck.(array_of_size (Gen.return 16) (float_range (-10.) 10.))
    (fun flat ->
      let data = Ndarray.of_flat_array ~dims:[| 4; 4 |] flat in
      let tree = Wavesyn_haar.Md_tree.of_data data in
      let all = Wavesyn_haar.Md_tree.all_coeffs tree in
      let some = List.filteri (fun i _ -> i mod 2 = 0) all in
      let syn = Synopsis.Md.of_tree tree some in
      let approx = Synopsis.Md.reconstruct syn in
      let ranges = [| (1, 2); (0, 3) |] in
      Float_util.approx_equal ~eps:1e-6
        (Range_query.range_sum_exact_md approx ~ranges)
        (Range_query.range_sum_md syn ~ranges))

let () =
  Alcotest.run "synopsis"
    [
      ( "synopsis",
        [
          Alcotest.test_case "validation" `Quick test_make_validates;
          Alcotest.test_case "zero coefficients dropped" `Quick test_zero_coeffs_dropped;
          Alcotest.test_case "full reconstruction" `Quick test_full_reconstruction;
          Alcotest.test_case "point = reconstruct" `Quick test_point_matches_reconstruct;
          Alcotest.test_case "empty synopsis" `Quick test_empty_synopsis;
          Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
          Alcotest.test_case "serialization rejects garbage" `Quick test_serialization_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_of_string_never_crashes;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "md roundtrip" `Quick test_md_synopsis_roundtrip;
          Alcotest.test_case "md validation" `Quick test_md_validates;
          Alcotest.test_case "md make checks dims, allocates no cube" `Quick
            test_md_make_checks_dims;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "denominator" `Quick test_denominator;
          Alcotest.test_case "metric validation" `Quick test_metric_validation;
          Alcotest.test_case "max error" `Quick test_max_error;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "length mismatch" `Quick test_length_mismatch;
        ] );
      ( "range queries",
        [
          Alcotest.test_case "exact sums" `Quick test_range_sum_exact;
          Alcotest.test_case "full synopsis exact" `Quick test_range_sum_full_synopsis_is_exact;
          Alcotest.test_case "avg and selectivity" `Quick test_range_avg_and_selectivity;
          Alcotest.test_case "bounds checked" `Quick test_range_bounds_checked;
          Alcotest.test_case "server hot-path corners" `Quick
            test_range_server_hot_path_corners;
          Alcotest.test_case "zero total" `Quick test_selectivity_zero_total;
          Alcotest.test_case "supports bit identity" `Quick
            test_range_sum_supports;
          Alcotest.test_case "point path bit identity" `Quick
            test_point_path_bit_identity;
          Alcotest.test_case "quantile path bit identity" `Quick
            test_quantile_path_bit_identity;
          Alcotest.test_case "quantile descent = probe-by-probe bisection"
            `Quick test_quantile_descent_oracle;
          Alcotest.test_case "quantile descent from 4 domains" `Quick
            test_quantile_descent_domains;
          Alcotest.test_case "evaluation allocates only its result" `Quick
            test_eval_allocation;
          Alcotest.test_case "rank index = linear scan" `Quick test_rank_index;
          Alcotest.test_case "make allocates the rank index and no more"
            `Quick test_make_allocation;
          Alcotest.test_case "non-finite coefficient stays on its paths"
            `Quick test_non_finite_coefficient_stays_on_its_paths;
          Alcotest.test_case "md full synopsis" `Quick test_md_range_sum_full_synopsis;
          QCheck_alcotest.to_alcotest prop_range_sum_matches_reconstruction;
          QCheck_alcotest.to_alcotest prop_md_range_matches_reconstruction;
        ] );
      ( "marginalization",
        [
          Alcotest.test_case "full synopsis exact" `Quick test_marginal_full_synopsis_exact;
          Alcotest.test_case "2x2 by hand" `Quick test_marginal_2x2_by_hand;
          Alcotest.test_case "validation" `Quick test_marginal_validation;
          QCheck_alcotest.to_alcotest prop_marginal_commutes;
        ] );
    ]
