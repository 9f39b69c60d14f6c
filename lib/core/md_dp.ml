let log_src = Logs.Src.create "wavesyn.md_dp" ~doc:"Approximate multi-d DP engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Md_tree = Wavesyn_haar.Md_tree
module Bits = Wavesyn_util.Bits

type config = {
  coeff_value : int -> float;
  round_error : float -> float;
  key_of_error : float -> int;
  forced : int -> bool;
  leaf_denominator : int array -> float;
}

type outcome = { value : float; retained : int list; dp_states : int }

type entry = { value : float; subset : int list; allocs : int array }

let pow_int b e =
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

(* Dense node ids: Root = 0, then level-l cubes in row-major order.
   [base.(l)] is the first id of the level-l cubes, so [base.(levels)]
   is the total node count. *)
let make_base ~d ~levels =
  let base = Array.make (levels + 1) 1 in
  for l = 1 to levels do
    base.(l) <- base.(l - 1) + (1 lsl (d * (l - 1)))
  done;
  base

let node_id base = function
  | Md_tree.Root -> 0
  | Md_tree.Cube { level; q } ->
      let lin = Array.fold_left (fun acc x -> (acc lsl level) + x) 0 q in
      base.(level) + lin

let subtree_cap tree ~total_cells = function
  | Md_tree.Root -> total_cells
  | Md_tree.Cube { level; _ } ->
      pow_int (Md_tree.side tree / (1 lsl level)) (Md_tree.ndim tree) - 1

(* --- the kernel ---

   Same recurrence and evaluation order as the paper's tuple-keyed memo
   Hashtbl, which test/oracle/md_reference.ml keeps as the oracle
   (bit-identical outcomes, the same dp_states count), restructured for
   per-state cost:

   - the tau-independent static shape of every node (coefficient
     positions, per-child signs, children, caps) is computed once into
     a {!skeleton} that callers running many DPs over one tree — the
     (1+eps) tau sweep — build once and share across candidates and
     pool domains;
   - the memo is one immediate-int Hashtbl per node, mapping a rounded
     incoming-error key to a budget row (a dense [entry array] indexed
     by the capped allotment), so a probe is two array loads and one
     int hash — no boxed tuple key per probe;
   - the per-submask scratch (child incoming errors, the
     budget-split value/choice tables) is hoisted into per-depth
     buffers allocated once per run, so the enumeration of retained
     subsets allocates nothing.

   docs/KERNELS.md states the layout and allocation contract. *)

(* Tau-independent static structure of one node. *)
type node_static = {
  st_node : Md_tree.node;
  st_depth : int;  (* recursion depth: Root = 0, level-l cube = l + 1 *)
  st_cap : int;
  st_raw_pos : int array;  (* every coefficient position of the node *)
  st_raw_signs : int array array;  (* st_raw_signs.(child_rank).(k) *)
  st_kids : Md_tree.node array;
  st_kid_ids : int array;
  st_kid_caps : int array;
  st_cells : int array array;
}

type skeleton = {
  sk_nodes : node_static array;  (* indexed by dense node id *)
  sk_levels : int;
  sk_max_children : int;
  sk_total_cells : int;
}

let skeleton ~tree =
  let d = Md_tree.ndim tree in
  let levels = Md_tree.levels tree in
  let total_cells = pow_int (Md_tree.side tree) d in
  let base = make_base ~d ~levels in
  let node_id = node_id base in
  let subtree_cap = subtree_cap tree ~total_cells in
  let count = base.(levels) in
  let nodes = Array.make count None in
  let max_children = ref 1 in
  let rec build node depth =
    let id = node_id node in
    let raw = Md_tree.node_coeffs tree node in
    let raw_pos = Array.map fst raw in
    let kids, cells =
      match Md_tree.children tree node with
      | Md_tree.Nodes ns -> (Array.of_list ns, [||])
      | Md_tree.Cells cs -> ([||], Array.of_list cs)
    in
    let child_count =
      if Array.length kids > 0 then Array.length kids else Array.length cells
    in
    if child_count > !max_children then max_children := child_count;
    let raw_signs =
      Array.init child_count (fun rank ->
          Array.map
            (fun pos ->
              Md_tree.sign_to_child tree node ~coeff_flat:pos ~child_rank:rank)
            raw_pos)
    in
    nodes.(id) <-
      Some
        {
          st_node = node;
          st_depth = depth;
          st_cap = subtree_cap node;
          st_raw_pos = raw_pos;
          st_raw_signs = raw_signs;
          st_kids = kids;
          st_kid_ids = Array.map node_id kids;
          st_kid_caps = Array.map subtree_cap kids;
          st_cells = cells;
        };
    Array.iter (fun kid -> build kid (depth + 1)) kids
  in
  build Md_tree.Root 0;
  let nodes =
    Array.map
      (function Some st -> st | None -> invalid_arg "Md_dp.skeleton: gap")
      nodes
  in
  {
    sk_nodes = nodes;
    sk_levels = levels;
    sk_max_children = !max_children;
    sk_total_cells = total_cells;
  }

(* Per-run, tau-dependent filtered view of a node: the DP-relevant
   coefficients (non-zero DP value or forced) with their values and
   per-child sign columns. *)
type finfo = {
  f_positions : int array;
  f_values : float array;
  f_forced_mask : int;
  f_signs : int array array;
}

let finfo_of cfg st =
  let raw = st.st_raw_pos in
  let n_raw = Array.length raw in
  let keep = Array.make n_raw false in
  let kept = ref 0 in
  let vals = Array.make n_raw 0. in
  for k = 0 to n_raw - 1 do
    let v = cfg.coeff_value raw.(k) in
    vals.(k) <- v;
    if v <> 0. || cfg.forced raw.(k) then begin
      keep.(k) <- true;
      incr kept
    end
  done;
  let positions = Array.make !kept 0 in
  let values = Array.make !kept 0. in
  let sel = Array.make !kept 0 in
  let w = ref 0 in
  for k = 0 to n_raw - 1 do
    if keep.(k) then begin
      positions.(!w) <- raw.(k);
      values.(!w) <- vals.(k);
      sel.(!w) <- k;
      incr w
    end
  done;
  let forced_mask = ref 0 in
  for k = 0 to !kept - 1 do
    if cfg.forced positions.(k) then forced_mask := !forced_mask lor (1 lsl k)
  done;
  let f_signs =
    Array.map (fun row -> Array.map (fun k -> row.(k)) sel) st.st_raw_signs
  in
  { f_positions = positions; f_values = values; f_forced_mask = !forced_mask;
    f_signs }

let run ?(on_state = fun () -> ()) sk ~budget cfg =
  if budget < 0 then invalid_arg "Md_dp.run: negative budget";
  let states = ref 0 in
  let node_count = Array.length sk.sk_nodes in
  let infos : finfo option array = Array.make node_count None in
  let info_of id =
    match infos.(id) with
    | Some f -> f
    | None ->
        let f = finfo_of cfg sk.sk_nodes.(id) in
        infos.(id) <- Some f;
        f
  in
  (* One budget row of entries per (node, rounded-error key); [absent]
     is the shared unvisited sentinel, tested by physical equality. *)
  let absent = { value = Float.nan; subset = []; allocs = [||] } in
  let memo : (int, entry array) Hashtbl.t array =
    Array.init node_count (fun _ -> Hashtbl.create 64)
  in
  let row id ~width ekey =
    let tbl = memo.(id) in
    match Hashtbl.find_opt tbl ekey with
    | Some r -> r
    | None ->
        let r = Array.make width absent in
        Hashtbl.replace tbl ekey r;
        r
  in
  (* Per-depth scratch, reused across every state at that depth: child
     incoming errors, and the flat value/choice tables of the
     budget-split DP (stride budget + 1; row [m] is the never-written
     neg_infinity base case). *)
  let mc = sk.sk_max_children in
  let stride = budget + 1 in
  let scratch_e =
    Array.init (sk.sk_levels + 2) (fun _ -> Array.make (Stdlib.max 1 mc) 0.)
  in
  let scratch_a =
    Array.init (sk.sk_levels + 2) (fun _ ->
        Array.make ((mc + 1) * stride) Float.neg_infinity)
  in
  let scratch_c =
    Array.init (sk.sk_levels + 2) (fun _ -> Array.make (Stdlib.max 1 (mc * stride)) 0)
  in
  let rec solve id b e =
    let st = sk.sk_nodes.(id) in
    let b = Stdlib.min b st.st_cap in
    let width = Stdlib.min budget st.st_cap + 1 in
    let ekey = cfg.key_of_error e in
    let r = row id ~width ekey in
    let cached = r.(b) in
    if cached != absent then cached.value
    else begin
      on_state ();
      incr states;
      let info = info_of id in
      let k = Array.length info.f_positions in
      let leaf_children = Array.length st.st_kids = 0 in
      let m =
        if leaf_children then Array.length st.st_cells
        else Array.length st.st_kids
      in
      let e_child = scratch_e.(st.st_depth) in
      let a = scratch_a.(st.st_depth) in
      let choice = scratch_c.(st.st_depth) in
      let best = ref Float.infinity in
      let best_subset = ref [] in
      let best_allocs = ref [||] in
      let free_mask = ((1 lsl k) - 1) land lnot info.f_forced_mask in
      Bits.iter_submasks free_mask (fun sub ->
          let smask = sub lor info.f_forced_mask in
          let ssize = Bits.popcount smask in
          if ssize <= b then begin
            let brem = b - ssize in
            (* Incoming error of each child: parent error plus the
               dropped coefficients' signed contributions, rounded. *)
            for i = 0 to m - 1 do
              let signs = info.f_signs.(i) in
              let acc = ref e in
              for kk = 0 to k - 1 do
                if smask land (1 lsl kk) = 0 then
                  acc := !acc +. (float_of_int signs.(kk) *. info.f_values.(kk))
              done;
              e_child.(i) <- cfg.round_error !acc
            done;
            let child_value i x =
              if leaf_children then
                Float.abs e_child.(i) /. cfg.leaf_denominator st.st_cells.(i)
              else solve st.st_kid_ids.(i) x e_child.(i)
            in
            let child_cap i = if leaf_children then 0 else st.st_kid_caps.(i) in
            (* Sequential split of brem across the m children (the
               child-list generalization of Section 3.2.1), on the
               reused flat tables. Row m stays neg_infinity; rows
               0..m-1 are fully rewritten up to brem before the row
               above reads them, so no stale value is ever read. *)
            for i = m - 1 downto 0 do
              for r = 0 to brem do
                let hi = Stdlib.min r (child_cap i) in
                let best_v = ref Float.infinity and best_x = ref 0 in
                for x = 0 to hi do
                  let v =
                    Float.max (child_value i x) a.(((i + 1) * stride) + r - x)
                  in
                  if v < !best_v then begin
                    best_v := v;
                    best_x := x
                  end
                done;
                a.((i * stride) + r) <- !best_v;
                choice.((i * stride) + r) <- !best_x
              done
            done;
            let v = a.(brem) in
            if v < !best then begin
              best := v;
              best_subset :=
                Bits.to_list smask |> List.map (fun kk -> info.f_positions.(kk));
              let allocs = Array.make m 0 in
              let r = ref brem in
              for i = 0 to m - 1 do
                allocs.(i) <- choice.((i * stride) + !r);
                r := !r - allocs.(i)
              done;
              best_allocs := allocs
            end
          end);
      let entry =
        { value = !best; subset = !best_subset; allocs = !best_allocs }
      in
      r.(b) <- entry;
      entry.value
    end
  in
  let top_value = solve 0 budget 0. in
  if not (Float.is_finite top_value) then None
  else begin
    let retained = ref [] in
    let rec trace id b e =
      let st = sk.sk_nodes.(id) in
      let b = Stdlib.min b st.st_cap in
      let width = Stdlib.min budget st.st_cap + 1 in
      let entry = (row id ~width (cfg.key_of_error e)).(b) in
      retained := entry.subset @ !retained;
      if Array.length st.st_kids > 0 then begin
        let info = info_of id in
        let k = Array.length info.f_positions in
        let in_subset pos = List.mem pos entry.subset in
        Array.iteri
          (fun i _kid ->
            let signs = info.f_signs.(i) in
            let acc = ref e in
            for kk = 0 to k - 1 do
              if not (in_subset info.f_positions.(kk)) then
                acc := !acc +. (float_of_int signs.(kk) *. info.f_values.(kk))
            done;
            trace st.st_kid_ids.(i) entry.allocs.(i) (cfg.round_error !acc))
          st.st_kids
      end
    in
    trace 0 budget 0.;
    Log.debug (fun m ->
        m "solved cells=%d budget=%d states=%d value=%g"
          sk.sk_total_cells budget !states top_value);
    Some { value = top_value; retained = !retained; dp_states = !states }
  end
