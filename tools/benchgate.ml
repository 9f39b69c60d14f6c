(* Performance gate over the recorded bench JSON (BENCH_obs.json).

   Four checks, both driven by the file's own contents so the gate is
   deterministic and runnable offline (no benchmark is executed here):

   - pooled gate: every "-seq" case must be beaten (or at least
     matched, scaled by --min-speedup) by its "-pool4" twin — but only
     when the file records [host_recommended_domains >= 4]. On smaller
     hosts a 4-domain pool is oversubscription, not parallelism, so
     the gate records an explicit SKIP with the host's core count
     instead of failing or silently passing (docs/PARALLELISM.md).

   - baseline gate (--baseline OLD.json): every sequential ("-seq")
     case present in both files must not regress by more than
     --max-regression (fractional, default 0.25 to absorb smoke-bench
     noise) against the old recording. This is the "-j1 must not pay
     for the pool" contract of docs/KERNELS.md.

   - cache gate: every "-nocache" case must be beaten (or at least
     matched, scaled by --min-cache-speedup) by its "-cache" twin —
     the SRV result-cache A/B rows
     (docs/ADAPTIVE.md). A cache whose hits cost more than the
     evaluation they skip is a regression, and fails here.

   - words gate (with --baseline): every row recording words_per_run
     in both files must not allocate more than its baseline. Minor
     words per run repeat from run to run, so there is no slack flag;
     one word absorbs the rounding of the OLS estimate. Pooled
     ("-pool") rows are skipped: their count covers only the calling
     domain, so it depends on how chunks were scheduled.

   Several runs per side: --baseline may repeat and several NEW files
   may follow. Each side then gates every row on its minimum
   ns_per_run (and words_per_run) over the files that record it: host
   noise only ever adds time, so the fastest run best estimates a
   row's cost, and a row fails only when it is slow in every run. One
   file per side is gated as it is.

   Exit status: 0 when every active check passes (skips included),
   1 on any FAIL, 2 on usage or parse errors.

   Usage: benchgate [--min-speedup F] [--max-regression F]
                    [--min-cache-speedup F] [--baseline OLD.json]...
                    NEW.json... *)

let fail_count = ref 0

let failf fmt =
  incr fail_count;
  Printf.printf ("benchgate: FAIL " ^^ fmt ^^ "\n")

let passf fmt = Printf.printf ("benchgate: PASS " ^^ fmt ^^ "\n")
let skipf fmt = Printf.printf ("benchgate: SKIP " ^^ fmt ^^ "\n")

let usage () =
  prerr_endline
    "usage: benchgate [--min-speedup F] [--min-cache-speedup F] \
     [--max-regression F] [--baseline OLD.json]... NEW.json...";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("benchgate: " ^ s); exit 2) fmt

(* --- minimal JSON field scanning ---

   The bench files are machine-written by bench/smoke.ml with a fixed
   shape (schema wavesyn-bench-smoke/2), so a dependency-free field
   scanner is enough: find every string value of "name", the number
   that follows its sibling "ns_per_run" and, when the row records it,
   its "words_per_run"; plus the two top-level scalar fields. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> die "cannot read %s: %s" path e
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

(* Position just after the first occurrence of [key] (a quoted JSON
   key plus colon) at or after [from]; None when absent. *)
let after_key s ~from key =
  let pat = "\"" ^ key ^ "\"" in
  let n = String.length s and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = pat then
      let rec colon j =
        if j >= n then None
        else
          match s.[j] with
          | ':' -> Some (j + 1)
          | ' ' | '\t' | '\n' | '\r' -> colon (j + 1)
          | _ -> None
      in
      colon (i + m)
    else find (i + 1)
  in
  find from

let skip_ws s i =
  let n = String.length s in
  let rec go i =
    if i < n && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r')
    then go (i + 1)
    else i
  in
  go i

let scan_string s i =
  let n = String.length s in
  if i >= n || s.[i] <> '"' then None
  else
    let b = Buffer.create 32 in
    let rec go j =
      if j >= n then None
      else
        match s.[j] with
        | '"' -> Some (Buffer.contents b, j + 1)
        | '\\' when j + 1 < n ->
            Buffer.add_char b s.[j + 1];
            go (j + 2)
        | c ->
            Buffer.add_char b c;
            go (j + 1)
    in
    go (i + 1)

let scan_number s i =
  let n = String.length s in
  let stop = ref i in
  while
    !stop < n
    && (match s.[!stop] with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false)
  do
    incr stop
  done;
  if !stop = i then None
  else
    match float_of_string_opt (String.sub s i (!stop - i)) with
    | Some f -> Some (f, !stop)
    | None -> None

type bench = {
  schema : string;
  host_domains : int option;
  rows : (string * float) list;  (* name, ns_per_run *)
  words : (string * float) list;  (* name, words_per_run, where recorded *)
}

let parse path =
  let s = read_file path in
  let schema =
    match after_key s ~from:0 "schema" with
    | None -> die "%s: no \"schema\" field" path
    | Some i -> (
        match scan_string s (skip_ws s i) with
        | Some (v, _) -> v
        | None -> die "%s: malformed \"schema\"" path)
  in
  let host_domains =
    match after_key s ~from:0 "host_recommended_domains" with
    | None -> None
    | Some i -> (
        match scan_number s (skip_ws s i) with
        | Some (f, _) -> Some (int_of_float f)
        | None -> die "%s: malformed \"host_recommended_domains\"" path)
  in
  (* A row's optional fields are searched only up to its closing
     brace, so a row without words_per_run never borrows the next
     row's. *)
  let row_end from =
    match String.index_from_opt s from '}' with
    | Some e -> e
    | None -> String.length s
  in
  let rec rows acc words from =
    match after_key s ~from "name" with
    | None -> (List.rev acc, List.rev words)
    | Some i -> (
        match scan_string s (skip_ws s i) with
        | None -> die "%s: malformed \"name\"" path
        | Some (name, j) -> (
            match after_key s ~from:j "ns_per_run" with
            | None -> die "%s: row %s has no ns_per_run" path name
            | Some k -> (
                match scan_number s (skip_ws s k) with
                | None -> die "%s: row %s: malformed ns_per_run" path name
                | Some (ns, j') ->
                    let stop = row_end j in
                    let words =
                      match after_key s ~from:j "words_per_run" with
                      | Some w when w < stop -> (
                          match scan_number s (skip_ws s w) with
                          | Some (wv, _) -> (name, wv) :: words
                          | None ->
                              die "%s: row %s: malformed words_per_run" path
                                name)
                      | _ -> words
                    in
                    rows ((name, ns) :: acc) words (Int.max j' stop))))
  in
  let rows, words = rows [] [] 0 in
  { schema; host_domains; rows; words }

(* Several runs of one side as one: the first file's schema and host
   core count, and each row's minimum over the files that record it,
   rows in first-seen order. *)
let merge = function
  | [] -> invalid_arg "merge"
  | [ b ] -> b
  | first :: _ as runs ->
      let minima field =
        let names =
          List.fold_left
            (fun seen b ->
              List.fold_left
                (fun seen (name, _) ->
                  if List.mem name seen then seen else name :: seen)
                seen (field b))
            [] runs
          |> List.rev
        in
        List.map
          (fun name ->
            ( name,
              List.fold_left
                (fun m b ->
                  match List.assoc_opt name (field b) with
                  | Some v -> Float.min m v
                  | None -> m)
                Float.infinity runs ))
          names
      in
      {
        first with
        rows = minima (fun b -> b.rows);
        words = minima (fun b -> b.words);
      }

(* --- gates --- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let seq_rows b = List.filter (fun (name, _) -> contains ~sub:"-seq" name) b.rows

let pooled_gate ~min_speedup b =
  match b.host_domains with
  | Some d when d < 4 ->
      skipf
        "pooled-gate: host_recommended_domains=%d < 4 — a 4-domain pool on \
         this host is oversubscription, not parallelism"
        d
  | None -> skipf "pooled-gate: no host_recommended_domains recorded"
  | Some _ ->
      List.iter
        (fun (name, seq_ns) ->
          (* replace the first "-seq" with "-pool4" to find the twin *)
          let twin =
            let parts = String.split_on_char '-' name in
            String.concat "-"
              (List.map (fun p ->
                   if String.length p >= 3 && String.sub p 0 3 = "seq" then
                     "pool4" ^ String.sub p 3 (String.length p - 3)
                   else p)
                  parts)
          in
          match List.assoc_opt twin b.rows with
          | None -> skipf "pooled-gate: %s has no %s twin" name twin
          | Some pool_ns ->
              let speedup = seq_ns /. pool_ns in
              if speedup >= min_speedup then
                passf "pooled-gate: %s speedup %.2fx >= %.2fx" name speedup
                  min_speedup
              else
                failf "pooled-gate: %s speedup %.2fx < %.2fx (seq %.1f ns, \
                       pool4 %.1f ns)"
                  name speedup min_speedup seq_ns pool_ns)
        (seq_rows b)

(* The "-cache" suffix is a substring of "-nocache", so the gate keys
   on the nocache rows and derives each twin by splicing the "no" out —
   matching on "-cache" directly would pair every nocache row with
   itself. *)
let cache_gate ~min_cache_speedup b =
  let nocache_rows =
    List.filter (fun (name, _) -> contains ~sub:"-nocache" name) b.rows
  in
  if nocache_rows = [] then
    skipf "cache-gate: no -nocache rows recorded"
  else
    List.iter
      (fun (name, nocache_ns) ->
        let twin =
          let parts = String.split_on_char '-' name in
          String.concat "-"
            (List.map (fun p ->
                 if String.length p >= 7 && String.sub p 0 7 = "nocache" then
                   "cache" ^ String.sub p 7 (String.length p - 7)
                 else p)
                parts)
        in
        match List.assoc_opt twin b.rows with
        | None -> skipf "cache-gate: %s has no %s twin" name twin
        | Some cache_ns ->
            let speedup = nocache_ns /. cache_ns in
            if speedup >= min_cache_speedup then
              passf "cache-gate: %s speedup %.2fx >= %.2fx" name speedup
                min_cache_speedup
            else
              failf "cache-gate: %s speedup %.2fx < %.2fx (nocache %.1f ns, \
                     cache %.1f ns)"
                name speedup min_cache_speedup nocache_ns cache_ns)
      nocache_rows

let baseline_gate ~max_regression ~old_b b =
  List.iter
    (fun (name, new_ns) ->
      match List.assoc_opt name old_b.rows with
      | None -> skipf "baseline-gate: %s not in baseline" name
      | Some old_ns ->
          let limit = old_ns *. (1. +. max_regression) in
          if new_ns <= limit then
            passf "baseline-gate: %s %.1f ns <= %.1f ns (baseline %.1f + %g%%)"
              name new_ns limit old_ns
              (max_regression *. 100.)
          else
            failf "baseline-gate: %s regressed: %.1f ns > %.1f ns (baseline \
                   %.1f + %g%%)"
              name new_ns limit old_ns
              (max_regression *. 100.))
    (seq_rows b)

let words_gate ~old_b b =
  if b.words = [] then skipf "words-gate: no words_per_run recorded"
  else
    List.iter
      (fun (name, new_w) ->
        match List.assoc_opt name old_b.words with
        | None -> skipf "words-gate: %s has no baseline words_per_run" name
        | Some _ when contains ~sub:"-pool" name ->
            skipf
              "words-gate: %s runs on pool domains; words_per_run counts \
               only the calling domain"
              name
        | Some old_w ->
            if new_w <= old_w +. 1. then
              passf "words-gate: %s %.0f words <= %.0f words (baseline)" name
                new_w old_w
            else
              failf "words-gate: %s allocates more: %.0f words > %.0f words \
                     (baseline)"
                name new_w old_w)
      b.words

let () =
  let min_speedup = ref 1.0 in
  let min_cache_speedup = ref 1.0 in
  let max_regression = ref 0.25 in
  let baselines = ref [] in
  let files = ref [] in
  let rec args = function
    | [] -> ()
    | "--min-speedup" :: v :: rest ->
        min_speedup := (try float_of_string v with _ -> usage ());
        args rest
    | "--min-cache-speedup" :: v :: rest ->
        min_cache_speedup := (try float_of_string v with _ -> usage ());
        args rest
    | "--max-regression" :: v :: rest ->
        max_regression := (try float_of_string v with _ -> usage ());
        args rest
    | "--baseline" :: v :: rest ->
        baselines := v :: !baselines;
        args rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        files := f :: !files;
        args rest
    | _ -> usage ()
  in
  args (List.tl (Array.to_list Sys.argv));
  if !files = [] then usage ();
  let b =
    merge
      (List.map
         (fun file ->
           let b = parse file in
           if not (contains ~sub:"wavesyn-bench-" b.schema) then
             die "%s: unexpected schema %S" file b.schema;
           b)
         (List.rev !files))
  in
  pooled_gate ~min_speedup:!min_speedup b;
  cache_gate ~min_cache_speedup:!min_cache_speedup b;
  if !baselines <> [] then begin
    let old_b = merge (List.map parse (List.rev !baselines)) in
    baseline_gate ~max_regression:!max_regression ~old_b b;
    words_gate ~old_b b
  end;
  if !fail_count > 0 then begin
    Printf.printf "benchgate: %d failure(s)\n" !fail_count;
    exit 1
  end
