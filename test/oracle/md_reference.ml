let log_src =
  Logs.Src.create "wavesyn.oracle.md" ~doc:"Reference multi-d DP engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Md_tree = Wavesyn_haar.Md_tree
module Bits = Wavesyn_util.Bits
module Md_dp = Wavesyn_core.Md_dp
module Approx_abs = Wavesyn_core.Approx_abs
module Approx_additive = Wavesyn_core.Approx_additive
open Md_dp

type entry = { value : float; subset : int list; allocs : int array }

(* Static description of one error-tree node, cached by node id. *)
type node_info = {
  node : Md_tree.node;
  cap : int;  (* coefficients available in the whole subtree *)
  positions : int array;  (* flat positions of DP-relevant coefficients *)
  values : float array;  (* their DP-unit values *)
  forced_mask : int;
  kids : Md_tree.node array;  (* empty when children are data cells *)
  cells : int array array;  (* data-cell children, when kids is empty *)
  signs : int array array;  (* signs.(child).(k) for coefficient k *)
  kid_caps : int array;
}

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

(* --- the reference kernel: the original tuple-keyed memo Hashtbl ---

   Kept verbatim as the equivalence oracle for the flat kernel
   (test/test_kernels.ml asserts bit-identical outcomes). *)
let run_reference ~on_state ~tree ~budget cfg =
  let d = Md_tree.ndim tree in
  let levels = Md_tree.levels tree in
  let total_cells = pow_int (Md_tree.side tree) d in
  let base = make_base ~d ~levels in
  let node_id = node_id base in
  let subtree_cap = subtree_cap tree ~total_cells in
  let info_table : (int, node_info) Hashtbl.t = Hashtbl.create 64 in
  let info_of node =
    let id = node_id node in
    match Hashtbl.find_opt info_table id with
    | Some info -> info
    | None ->
        let raw = Md_tree.node_coeffs tree node in
        let relevant =
          Array.to_list raw
          |> List.filter_map (fun (pos, _) ->
                 let v = cfg.coeff_value pos in
                 if v <> 0. || cfg.forced pos then Some (pos, v) else None)
        in
        let positions = Array.of_list (List.map fst relevant) in
        let values = Array.of_list (List.map snd relevant) in
        let forced_mask =
          Array.to_list positions
          |> List.mapi (fun k pos -> if cfg.forced pos then 1 lsl k else 0)
          |> List.fold_left ( lor ) 0
        in
        let kids, cells =
          match Md_tree.children tree node with
          | Md_tree.Nodes ns -> (Array.of_list ns, [||])
          | Md_tree.Cells cs -> ([||], Array.of_list cs)
        in
        let child_count =
          if Array.length kids > 0 then Array.length kids
          else Array.length cells
        in
        let signs =
          Array.init child_count (fun rank ->
              Array.map
                (fun pos ->
                  Md_tree.sign_to_child tree node ~coeff_flat:pos
                    ~child_rank:rank)
                positions)
        in
        let kid_caps = Array.map subtree_cap kids in
        let info =
          {
            node;
            cap = subtree_cap node;
            positions;
            values;
            forced_mask;
            kids;
            cells;
            signs;
            kid_caps;
          }
        in
        Hashtbl.replace info_table id info;
        info
  in
  let memo : (int * int * int, entry) Hashtbl.t = Hashtbl.create 4096 in
  let rec solve node b e =
    let info = info_of node in
    let b = Stdlib.min b info.cap in
    let key = (node_id node, b, cfg.key_of_error e) in
    match Hashtbl.find_opt memo key with
    | Some entry -> entry.value
    | None ->
        on_state ();
        let k = Array.length info.positions in
        let m =
          if Array.length info.kids > 0 then Array.length info.kids
          else Array.length info.cells
        in
        let leaf_children = Array.length info.kids = 0 in
        let best = ref Float.infinity in
        let best_subset = ref [] in
        let best_allocs = ref [||] in
        let free_mask = ((1 lsl k) - 1) land lnot info.forced_mask in
        Bits.iter_submasks free_mask (fun sub ->
            let smask = sub lor info.forced_mask in
            let ssize = Bits.popcount smask in
            if ssize <= b then begin
              let brem = b - ssize in
              (* Incoming error of each child: parent error plus the
                 dropped coefficients' signed contributions, rounded. *)
              let e_child =
                Array.init m (fun i ->
                    let acc = ref e in
                    for kk = 0 to k - 1 do
                      if smask land (1 lsl kk) = 0 then
                        acc :=
                          !acc
                          +. (float_of_int info.signs.(i).(kk) *. info.values.(kk))
                    done;
                    cfg.round_error !acc)
              in
              let child_value i x =
                if leaf_children then
                  Float.abs e_child.(i) /. cfg.leaf_denominator info.cells.(i)
                else solve info.kids.(i) x e_child.(i)
              in
              let child_cap i = if leaf_children then 0 else info.kid_caps.(i) in
              (* Sequential split of brem across the m children
                 (the child-list generalization of Section 3.2.1). *)
              let a = Array.make_matrix (m + 1) (brem + 1) Float.neg_infinity in
              let choice = Array.make_matrix (m + 1) (brem + 1) 0 in
              for i = m - 1 downto 0 do
                for r = 0 to brem do
                  let hi = Stdlib.min r (child_cap i) in
                  let best_v = ref Float.infinity and best_x = ref 0 in
                  for x = 0 to hi do
                    let v = Float.max (child_value i x) a.(i + 1).(r - x) in
                    if v < !best_v then begin
                      best_v := v;
                      best_x := x
                    end
                  done;
                  a.(i).(r) <- !best_v;
                  choice.(i).(r) <- !best_x
                done
              done;
              let v = a.(0).(brem) in
              if v < !best then begin
                best := v;
                best_subset :=
                  Bits.to_list smask |> List.map (fun kk -> info.positions.(kk));
                let allocs = Array.make m 0 in
                let r = ref brem in
                for i = 0 to m - 1 do
                  allocs.(i) <- choice.(i).(!r);
                  r := !r - allocs.(i)
                done;
                best_allocs := allocs
              end
            end);
        let entry =
          { value = !best; subset = !best_subset; allocs = !best_allocs }
        in
        Hashtbl.replace memo key entry;
        entry.value
  in
  let top_value = solve Md_tree.Root budget 0. in
  if not (Float.is_finite top_value) then None
  else begin
    let retained = ref [] in
    let rec trace node b e =
      let info = info_of node in
      let b = Stdlib.min b info.cap in
      let entry = Hashtbl.find memo (node_id node, b, cfg.key_of_error e) in
      retained := entry.subset @ !retained;
      if Array.length info.kids > 0 then begin
        let k = Array.length info.positions in
        let in_subset pos = List.mem pos entry.subset in
        Array.iteri
          (fun i kid ->
            let acc = ref e in
            for kk = 0 to k - 1 do
              if not (in_subset info.positions.(kk)) then
                acc :=
                  !acc +. (float_of_int info.signs.(i).(kk) *. info.values.(kk))
            done;
            trace kid entry.allocs.(i) (cfg.round_error !acc))
          info.kids
      end
    in
    trace Md_tree.Root budget 0.;
    Log.debug (fun m ->
        m "solved cells=%d budget=%d states=%d value=%g" total_cells budget
          (Hashtbl.length memo) top_value);
    Some
      { value = top_value; retained = !retained; dp_states = Hashtbl.length memo }
  end

let run ?(on_state = fun () -> ()) ~tree ~budget cfg =
  run_reference ~on_state ~tree ~budget cfg

let approx_abs ~tree ~budget ~epsilon =
  Approx_abs.candidates ~tree ~budget ~epsilon
  |> Array.map (fun (c : Approx_abs.candidate) ->
         (c, run ~tree ~budget c.config))
  |> Approx_abs.merge ~tree

let approx_additive ~tree ~budget ~epsilon metric =
  Approx_additive.config ~tree ~epsilon metric
  |> Option.map (fun cfg -> Option.get (run ~tree ~budget cfg))
  |> Approx_additive.result_of ~tree metric
