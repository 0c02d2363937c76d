open Egraph

type opt_stats = {
  rounds : int;
  classes : int;
  nodes : int;
  cost_before : float;
  cost_after : float;
}

let no_opt = { rounds = 0; classes = 0; nodes = 0; cost_before = 0.0; cost_after = 0.0 }

let vol_estimate ~nominal dom =
  match dom with
  | Tdfg.Infinite -> 1.0
  | Tdfg.Finite r ->
    let env _ = nominal in
    let v = ref 1.0 in
    List.iter
      (fun (lo, hi) ->
        let e = Symaff.eval hi env - Symaff.eval lo env in
        v := !v *. float_of_int (max 1 e))
      (Symrect.ranges r);
    !v

(* Cost of an e-node, excluding children: bit-serial latency of the
   operation times the (estimated) number of elements it touches. The
   constants come straight from the Bitserial model so that mv is cheap
   relative to multiply, making compute-reuse rewrites profitable exactly
   when they save expensive ops. [vol] is a class's [vol_estimate]. *)
let cost ~dtype ~nominal ~vol g n =
  match n with
  | E_tensor _ | E_const _ | E_stream _ -> 0.0
  | E_cmp (op, inputs) ->
    let out_vol =
      List.fold_left
        (fun acc i ->
          match domain_of g i with
          | Tdfg.Infinite -> acc
          | Tdfg.Finite _ -> if acc > 0.0 then Float.min acc (vol i) else vol i)
        0.0 inputs
    in
    let out_vol = if out_vol = 0.0 then 1.0 else out_vol in
    float_of_int (Bitserial.op_cycles op dtype) *. out_vol
  | E_mv { input; dist; _ } ->
    float_of_int (Bitserial.intra_shift_cycles dtype ~distance:dist) *. vol input
  | E_bc { input; dim = _; lo; hi } ->
    let env _ = nominal in
    let copies = max 1 (Symaff.eval hi env - Symaff.eval lo env) in
    2.0 *. float_of_int (Dtype.bits dtype) *. vol input *. log (float_of_int copies +. 1.0)
  | E_shrink _ -> 0.0
  | E_reduce { op; input; _ } ->
    let rounds = 8.0 (* log2 of a typical tile extent *) in
    (float_of_int (Bitserial.op_cycles op dtype) +. float_of_int (Dtype.bits dtype))
    *. rounds
    *. sqrt (vol input)

let node_cost ~dtype ~nominal g n =
  cost ~dtype ~nominal ~vol:(fun id -> vol_estimate ~nominal (domain_of g id)) g n

let infinity_cost = Float.max_float /. 4.0

(* Extraction state. The graph does not change while extracting, so each
   class's candidates (its [nodes_of]), its domain volume and the
   candidates' own costs are computed once; a choice is an index into
   them, -1 for none. *)
type state = {
  g : Egraph.t;
  cands : enode array array;
  costs : float array array;
  choice : int array;
  mark : int array; (* DAG walks: [stamp] done, [stamp - 1] in progress *)
  mutable stamp : int;
}

let prepare ~dtype ~nominal g cls =
  let size = List.fold_left (fun m c -> max m (c + 1)) 0 cls in
  let cands = Array.make size [||] and vols = Array.make size 1.0 in
  List.iter
    (fun c ->
      cands.(c) <- Array.of_list (nodes_of g c);
      vols.(c) <- vol_estimate ~nominal (domain_of g c))
    cls;
  let vol id = vols.(find g id) in
  {
    g;
    cands;
    costs = Array.map (Array.map (cost ~dtype ~nominal ~vol g)) cands;
    choice = Array.make size (-1);
    mark = Array.make size 0;
    stamp = 0;
  }

(* Index of the chosen node of canonical class [id]. *)
let chosen st id =
  match st.choice.(id) with
  | -1 -> failwith "Extract: class without a representative"
  | j -> j

(* Seed: per-class best representative by tree cost (fixpoint, cycle-safe). *)
let tree_seed st cls =
  let best = Array.make (Array.length st.choice) infinity_cost in
  let cost_of_class c =
    let c = find st.g c in
    if st.choice.(c) < 0 then infinity_cost else best.(c)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        Array.iteri
          (fun j n ->
            let child_cost =
              List.fold_left (fun acc i -> acc +. cost_of_class i) 0.0 (children n)
            in
            if child_cost < infinity_cost then begin
              let total = st.costs.(c).(j) +. child_cost in
              if st.choice.(c) < 0 || not (best.(c) <= total) then begin
                st.choice.(c) <- j;
                best.(c) <- total;
                changed := true
              end
            end)
          st.cands.(c))
      cls
  done

(* DAG cost of the current choice from the roots: each class counted once,
   summed in post-order. [None] on a cyclic choice. [visit] sees each class
   as it completes. *)
let dag_cost ?(visit = ignore) st roots =
  st.stamp <- st.stamp + 2;
  let doing = st.stamp - 1 and done_ = st.stamp in
  let total = ref 0.0 in
  let exception Cyclic in
  let rec go id =
    let id = find st.g id in
    let m = st.mark.(id) in
    if m = done_ then ()
    else if m = doing then raise Cyclic
    else begin
      st.mark.(id) <- doing;
      let j = chosen st id in
      List.iter go (children st.cands.(id).(j));
      st.mark.(id) <- done_;
      visit id;
      total := !total +. st.costs.(id).(j)
    end
  in
  try
    List.iter go roots;
    Some !total
  with Cyclic -> None

(* The local search's table of reachable classes. It is iterated, so its
   hash is [Hashtbl.hash], never seeded (see [Egraph.rebuild]'s table). *)
module Visited = Hashtbl.Make (struct
  type t = eid

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let extract ?(nominal = 1024) ~dtype g ~roots =
  let roots = List.map (find g) roots in
  let cls = classes g in
  let st = prepare ~dtype ~nominal g cls in
  tree_seed st cls;
  let choice id =
    let id = find g id in
    st.cands.(id).(chosen st id)
  in
  let current_cost () =
    match dag_cost st roots with Some c -> c | None -> infinity_cost
  in
  (* Local search: switch one class's representative when it lowers the
     total shared-DAG cost. Classes are tried in the iteration order of a
     table of the reachable classes filled in post-order. *)
  let improved = ref true in
  let passes = ref 0 in
  let base = ref (current_cost ()) in
  while !improved && !passes < 6 do
    improved := false;
    incr passes;
    let visited = Visited.create 64 in
    match dag_cost ~visit:(fun id -> Visited.replace visited id ()) st roots with
    | None -> ()
    | Some _ ->
      Visited.iter
        (fun cls () ->
          let original = st.choice.(cls) in
          Array.iteri
            (fun j cand ->
              (* [=] is false for a NaN literal, so such a representative
                 is tried again like any other candidate *)
              if j = original && cand = st.cands.(cls).(original) then ()
              else begin
                st.choice.(cls) <- j;
                let c = current_cost () in
                if c +. 1e-9 < !base then begin
                  base := c;
                  improved := true
                end
                else st.choice.(cls) <- original
              end)
            st.cands.(cls))
        visited
  done;
  (choice, !base)

(* Rebuild a Tdfg from the extraction. *)
let rebuild g ~(source : Tdfg.t) ~choice ~mapping =
  let out = Tdfg.create ~name:(Tdfg.name source) ~dims:(Tdfg.lattice_dims source) ~dtype:(Tdfg.dtype source) in
  let built : (eid, Tdfg.id) Hashtbl.t = Hashtbl.create 64 in
  let rec emit id =
    let id = find g id in
    match Hashtbl.find_opt built id with
    | Some x -> x
    | None ->
      let n = choice id in
      let x =
        match n with
        | E_tensor { array; view; axes } -> Tdfg.tensor out ~array ~view ~axes
        | E_const c -> Tdfg.add out (Tdfg.Const c)
        | E_cmp (op, inputs) ->
          (* left-to-right to preserve low register pressure in the
             rebuilt schedule order *)
          let inputs = List.fold_left (fun acc i -> emit i :: acc) [] inputs in
          Tdfg.cmp out op (List.rev inputs)
        | E_mv { input; dim; dist } -> Tdfg.mv out (emit input) ~dim ~dist
        | E_bc { input; dim; lo; hi } -> Tdfg.bc out (emit input) ~dim ~lo ~hi
        | E_shrink { input; rect } -> Tdfg.shrink out (emit input) ~rect
        | E_reduce { op; input; dim } -> Tdfg.reduce out op (emit input) ~dim
        | E_stream { array; view; coords } ->
          Tdfg.add out (Tdfg.Stream_load { array; view; coords })
      in
      Hashtbl.replace built id x;
      x
  in
  let map_src src =
    match List.assoc_opt src mapping with
    | Some e -> emit e
    | None -> failwith "Extract.rebuild: output source not in mapping"
  in
  List.iter
    (fun o ->
      match o with
      | Tdfg.Out_tensor { src; array; axes } ->
        Tdfg.add_output out (Tdfg.Out_tensor { src = map_src src; array; axes })
      | Tdfg.Out_stream { src; array; coords; accum } ->
        Tdfg.add_output out (Tdfg.Out_stream { src = map_src src; array; coords; accum }))
    (Tdfg.outputs source);
  out

let optimize ?(nominal = 1024) ?max_iters ?node_limit ~arrays source =
  let dtype = Tdfg.dtype source in
  let g, mapping = of_tdfg source in
  let roots =
    List.map
      (fun o ->
        let src =
          match o with
          | Tdfg.Out_tensor { src; _ } | Tdfg.Out_stream { src; _ } -> src
        in
        List.assoc src mapping)
      (Tdfg.outputs source)
  in
  let _, cost_before = extract ~nominal ~dtype g ~roots in
  let rounds = Rules.saturate ?max_iters ?node_limit ~arrays g in
  let choice, cost_after = extract ~nominal ~dtype g ~roots in
  let optimized = rebuild g ~source ~choice ~mapping in
  ( optimized,
    { rounds; classes = class_count g; nodes = node_count g; cost_before; cost_after } )

let dag_cost ?(nominal = 1024) g =
  let dtype = Tdfg.dtype g in
  let eg, mapping = of_tdfg g in
  let roots =
    List.map
      (fun o ->
        let src =
          match o with
          | Tdfg.Out_tensor { src; _ } | Tdfg.Out_stream { src; _ } -> src
        in
        List.assoc src mapping)
      (Tdfg.outputs g)
  in
  let choice, cost = extract ~nominal ~dtype eg ~roots in
  ignore choice;
  cost
