type stats = {
  commands : int;
  jit_cycles : float;
  final_reduce_elems : float;
  stream_load_elems : float;
  stream_store_elems : float;
  spill_elems : float;
  writeback_elems : float;
  compute_elems : float;
  memoized : bool;
}

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

(* Tile box covered by a (decomposed or not) region. *)
let tile_box_of layout rect =
  let tile = layout.Layout.tile in
  let n = Hyperrect.dims rect in
  let lo = Array.make n 0 and hi = Array.make n 0 in
  for d = 0 to n - 1 do
    lo.(d) <- fdiv (Hyperrect.lo rect d) tile.(d);
    hi.(d) <- fdiv (Hyperrect.hi rect d - 1) tile.(d) + 1
  done;
  Hyperrect.unsafe_make ~lo ~hi

(* Active bitlines per touched tile of a decomposed piece: full tile extent
   in dimensions where the piece spans multiple tiles (it is then aligned),
   the piece extent otherwise. [box] is the piece's [tile_box_of], computed
   once by the caller and shared with the emitted command. *)
let lanes_of_box layout piece box =
  let tile = layout.Layout.tile in
  let lanes = ref 1 in
  for d = 0 to Hyperrect.dims piece - 1 do
    let span = Hyperrect.extent box d in
    let e = if span > 1 then tile.(d) else Hyperrect.extent piece d in
    lanes := !lanes * e
  done;
  !lanes

(* In-tile position range of a piece along one dimension. *)
let in_tile_range_box layout piece box d =
  let t = layout.Layout.tile.(d) in
  if Hyperrect.extent box d > 1 then (0, t)
  else begin
    let lo = Hyperrect.lo piece d and hi = Hyperrect.hi piece d in
    let base = fdiv lo t * t in
    (lo - base, hi - base)
  end

(* All-float so OCaml lays the record out flat: updating a mutable float
   field in a mixed record boxes the new value on every store, and these
   six accumulators are bumped from the innermost per-piece loops. *)
type lower_acc = {
  mutable final_reduce : float;
  mutable s_load : float;
  mutable s_store : float;
  mutable spill : float;
  mutable writeback : float;
  mutable computed : float;
}

type lower_ctx = {
  cfg : Machine_config.t;
  g : Tdfg.t;
  schedule : Schedule.t;
  layout : Layout.t;
  dom : Tdfg.id -> Hyperrect.t option;
  out : Command.t Vec.t;
  mutable dirty : bool; (* pending inter-tile movement since last sync *)
  acc : lower_acc;
}

let emit ctx c = Vec.push ctx.out c

let barrier_if_dirty ctx =
  if ctx.dirty then begin
    emit ctx Command.sync;
    ctx.dirty <- false
  end

let resolve_dom ctx id = ctx.dom id

let dtype ctx = Tdfg.dtype ctx.g

let decomp_iter ctx rect f =
  Hyperrect.decompose_iter rect ~tile:ctx.layout.Layout.tile ~f

let lower_cmp ctx id op inputs =
  barrier_if_dirty ctx;
  let const_operands =
    List.length
      (List.filter
         (fun i -> match Tdfg.kind ctx.g i with Tdfg.Const _ -> true | _ -> false)
         inputs)
  in
  match resolve_dom ctx id with
  | None -> () (* constant folding: nothing to execute *)
  | Some dom ->
    (* one label (and one dtype read) per node, shared by all its pieces *)
    let label = "cmp:" ^ string_of_int id in
    let dtype = dtype ctx in
    let kind = Command.Compute { op; const_operands } in
    decomp_iter ctx dom (fun piece ->
        let box = tile_box_of ctx.layout piece in
        let lanes = lanes_of_box ctx.layout piece box in
        ctx.acc.computed <- ctx.acc.computed +. float_of_int (Hyperrect.volume piece);
        emit ctx
          (Command.make kind ~dtype ~tile_box:box ~lanes_per_tile:lanes ~label))

(* Algorithm 2: lower one mv into shift commands over a decomposed piece. *)
let lower_mv_piece ctx ~label ~dim ~dist piece =
  let t = ctx.layout.Layout.tile.(dim) in
  let d_inter = abs dist / t in
  let d_intra = abs dist mod t in
  let d_intra_c = t - d_intra in
  (* (mask_lo, mask_hi, inter, intra) per Alg 2 *)
  let shifts =
    if dist > 0 then
      (0, d_intra_c, d_inter, d_intra)
      :: (if d_intra > 0 then [ (d_intra_c, t, d_inter + 1, -d_intra_c) ] else [])
    else if dist < 0 then
      (if d_intra > 0 then [ (0, d_intra, -(d_inter + 1), d_intra_c) ] else [])
      @ [ (d_intra, t, -d_inter, -d_intra) ]
    else []
  in
  let box = tile_box_of ctx.layout piece in
  let p_lo, p_hi = in_tile_range_box ctx.layout piece box dim in
  let other_lanes =
    lanes_of_box ctx.layout piece box / max 1 (min t (p_hi - p_lo))
  in
  List.iter
    (fun (m_lo, m_hi, inter, intra) ->
      let o_lo = max m_lo p_lo and o_hi = min m_hi p_hi in
      if o_hi > o_lo then begin
        (* the piece has bitlines under this mask *)
        let lanes = other_lanes * (o_hi - o_lo) in
        let pat = Pattern.range ~lo:o_lo ~hi:o_hi in
        let kind =
          if inter = 0 then Command.Intra_shift { dim; distance = intra }
          else Command.Inter_shift { dim; tile_dist = inter; intra_dist = intra }
        in
        if inter <> 0 then ctx.dirty <- true;
        emit ctx
          (Command.make kind ~bitline_pat:pat ~dtype:(dtype ctx) ~tile_box:box
             ~lanes_per_tile:lanes ~label)
      end)
    shifts

let lower_mv ctx node input ~dim ~dist =
  if dist <> 0 then begin
    match resolve_dom ctx input with
    | None -> ()
    | Some src ->
      let label = "mv:" ^ string_of_int node in
      decomp_iter ctx src (lower_mv_piece ctx ~label ~dim ~dist)
  end

let lower_bc ctx id input ~dim =
  match (resolve_dom ctx id, resolve_dom ctx input) with
  | Some dest, Some _src ->
    let label = "bc:" ^ string_of_int id in
    let dtype = dtype ctx in
    decomp_iter ctx dest (fun piece ->
        let box = tile_box_of ctx.layout piece in
        let copies = Hyperrect.extent box dim in
        if copies > 1 then ctx.dirty <- true;
        emit ctx
          (Command.make
             (Command.Broadcast { dim; copies })
             ~dtype ~tile_box:box
             ~lanes_per_tile:(lanes_of_box ctx.layout piece box)
             ~label))
  | _ -> () (* broadcasting a constant is folded into compute commands *)

let lower_reduce ctx op input ~dim =
  barrier_if_dirty ctx;
  match resolve_dom ctx input with
  | None -> ()
  | Some src ->
    let extent = Hyperrect.extent src dim in
    let t = ctx.layout.Layout.tile.(dim) in
    let width = min t extent in
    let label = "reduce:" ^ string_of_int input in
    let dtype = dtype ctx in
    let kind = Command.Reduce { op; width } in
    decomp_iter ctx src (fun piece ->
        let box = tile_box_of ctx.layout piece in
        ctx.acc.computed <- ctx.acc.computed +. float_of_int (Hyperrect.volume piece);
        emit ctx
          (Command.make kind ~dtype ~tile_box:box
             ~lanes_per_tile:(lanes_of_box ctx.layout piece box)
             ~label));
    (* Partials left across tiles along [dim] are collected by a
       near-memory stream (the Final Reduce phase). *)
    let tiles_along = (extent + t - 1) / t in
    if tiles_along > 1 then begin
      let out_elems = Hyperrect.volume src / max 1 extent in
      ctx.acc.final_reduce <-
        ctx.acc.final_reduce +. float_of_int (out_elems * tiles_along)
    end

(* A spilled node's value leaves the arrays through a spill store stream
   and its consumers pull it back in — both charged as stream elements
   moving at bank bandwidth (paper §6: "a stream writing back and loading
   from the DRAM"). *)
let charge_spill ctx id =
  if Schedule.is_spilled ctx.schedule id then
    match resolve_dom ctx id with
    | Some dom ->
      ctx.acc.spill <- ctx.acc.spill +. float_of_int (Hyperrect.volume dom)
    | None -> ()

let lower_node ctx (instr : Schedule.instr) =
  charge_spill ctx instr.node;
  List.iter (charge_spill ctx) (Tdfg.inputs_of (Tdfg.kind ctx.g instr.node));
  match Tdfg.kind ctx.g instr.node with
  | Tdfg.Tensor _ | Tdfg.Const _ | Tdfg.Shrink _ -> ()
  | Tdfg.Stream_load _ -> begin
    match resolve_dom ctx instr.node with
    | Some dom -> ctx.acc.s_load <- ctx.acc.s_load +. float_of_int (Hyperrect.volume dom)
    | None -> ()
  end
  | Tdfg.Cmp { op; inputs } -> lower_cmp ctx instr.node op inputs
  | Tdfg.Mv { input; dim; dist } -> lower_mv ctx instr.node input ~dim ~dist
  | Tdfg.Bc { input; dim; _ } -> lower_bc ctx instr.node input ~dim
  | Tdfg.Reduce { op; input; dim } -> lower_reduce ctx op input ~dim

let lower_output ctx schedule o =
  match o with
  | Tdfg.Out_tensor { src; array; _ } -> begin
    barrier_if_dirty ctx;
    match resolve_dom ctx src with
    | None -> ()
    | Some dom ->
      ctx.acc.writeback <- ctx.acc.writeback +. float_of_int (Hyperrect.volume dom);
      let src_slot = Schedule.slot_of schedule src in
      let arr_slot = List.assoc_opt array schedule.Schedule.array_slots in
      if src_slot <> arr_slot then begin
        (* copy the result wordlines into the array's persistent slot *)
        let label = "writeback:" ^ array in
        let dtype = dtype ctx in
        let kind = Command.Compute { op = Op.Copy; const_operands = 0 } in
        decomp_iter ctx dom (fun piece ->
            let box = tile_box_of ctx.layout piece in
            emit ctx
              (Command.make kind ~dtype ~tile_box:box
                 ~lanes_per_tile:(lanes_of_box ctx.layout piece box)
                 ~label))
      end
  end
  | Tdfg.Out_stream { src; _ } -> begin
    barrier_if_dirty ctx;
    match resolve_dom ctx src with
    | Some dom -> ctx.acc.s_store <- ctx.acc.s_store +. float_of_int (Hyperrect.volume dom)
    | None -> ()
  end

let lower ?doms cfg g ~schedule ~layout ~env =
  (* [doms]: resolved domains indexed by node id, precomputed by the engine
     (which needs them for the memo-key signature anyway). Without it,
     domains are resolved on demand through [env] — same values, since
     resolution is a pure function of the graph and the environment. *)
  let dom =
    match doms with
    | Some d -> fun id -> Array.unsafe_get d id
    | None -> (
      fun id ->
        match Tdfg.domain g id with
        | Tdfg.Infinite -> None
        | Tdfg.Finite r -> Some (Symrect.resolve r env))
  in
  let ctx =
    {
      cfg;
      g;
      schedule;
      layout;
      dom;
      out = Vec.create ();
      dirty = false;
      acc =
        {
          final_reduce = 0.0;
          s_load = 0.0;
          s_store = 0.0;
          spill = 0.0;
          writeback = 0.0;
          computed = 0.0;
        };
    }
  in
  List.iter (lower_node ctx) schedule.Schedule.order;
  List.iter (lower_output ctx schedule) (Tdfg.outputs g);
  if ctx.dirty then emit ctx Command.sync;
  let cmds = Vec.to_array ctx.out in
  let n = Array.length cmds in
  let jit_cycles =
    float_of_int cfg.Machine_config.jit_base_cycles
    +. (float_of_int n *. float_of_int cfg.Machine_config.jit_cycles_per_command)
  in
  ( cmds,
    {
      commands = n;
      jit_cycles;
      final_reduce_elems = ctx.acc.final_reduce;
      stream_load_elems = ctx.acc.s_load +. ctx.acc.spill;
      stream_store_elems = ctx.acc.s_store +. ctx.acc.spill;
      spill_elems = ctx.acc.spill;
      writeback_elems = ctx.acc.writeback;
      compute_elems = ctx.acc.computed;
      memoized = false;
    } )

(* Memoization *)

type memo = {
  table : (string, Command.t array * stats) Hashtbl.t;
  warm_regions : (string, unit) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let memo_create () =
  { table = Hashtbl.create 64; warm_regions = Hashtbl.create 8; hits = 0; misses = 0 }

let memo_lookup_cycles = 200.0

(* The per-region entry cost (template instantiation, array-dimension
   specialization, §4.2) is paid once; re-lowering the same region with new
   parameters only maps the pre-scheduled tDFG onto the layout. *)
let region_of_key key =
  match String.index_opt key '|' with
  | Some i -> String.sub key 0 i
  | None -> key

(* Cross-run cache of the raw lowering result. [lower] is a pure function
   of the machine config, the scheduled graph and the resolved domains +
   layout — which the memo [key] already encodes relative to a fixed
   (g, cfg) pair, so the cache key adds physical identity of both. The
   per-run memo above still decides hit/miss *charging* (first lookup in a
   run pays full [jit_cycles], later ones [memo_lookup_cycles]) and emits
   the same trace events, so simulated cycles and traces are unchanged:
   only the host-side re-lowering work is skipped when bench loops re-run
   identical combos. Per-domain (DLS) to stay race-free under the batch
   pool; bounded by reset. *)
type global_entry = {
  ge_g : Tdfg.t;
  ge_cfg : Machine_config.t;
  ge_cmds : Command.t array;
  ge_stats : stats;
}

let global_cache : (string, global_entry list) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let global_cache_max = 4096

let lower_cached ?doms ~key cfg g ~schedule ~layout ~env =
  let tbl = Domain.DLS.get global_cache in
  let entries =
    match Hashtbl.find tbl key with l -> l | exception Not_found -> []
  in
  let rec find = function
    | e :: _ when e.ge_g == g && e.ge_cfg == cfg -> Some (e.ge_cmds, e.ge_stats)
    | _ :: tl -> find tl
    | [] -> None
  in
  match find entries with
  | Some r -> r
  | None ->
    let cmds, st = lower ?doms cfg g ~schedule ~layout ~env in
    if Hashtbl.length tbl >= global_cache_max then Hashtbl.reset tbl;
    let entries =
      match Hashtbl.find tbl key with l -> l | exception Not_found -> []
    in
    Hashtbl.replace tbl key
      ({ ge_g = g; ge_cfg = cfg; ge_cmds = cmds; ge_stats = st } :: entries);
    (cmds, st)

let lower_memo ?(obs = Obs.null) ?doms memo ~key cfg g ~schedule ~layout ~env =
  match Hashtbl.find_opt memo.table key with
  | Some (cmds, st) ->
    memo.hits <- memo.hits + 1;
    if Obs.on obs then Obs.emit obs (Trace.Memo { key; hit = true });
    (cmds, { st with jit_cycles = memo_lookup_cycles; memoized = true })
  | None ->
    memo.misses <- memo.misses + 1;
    let region = region_of_key key in
    if Obs.on obs then begin
      Obs.emit obs (Trace.Memo { key; hit = false });
      Obs.emit obs (Trace.Jit_span { dir = Trace.Enter; region; commands = 0; cycles = 0.0 })
    end;
    let cmds, st = lower_cached ?doms ~key cfg g ~schedule ~layout ~env in
    let st =
      if Hashtbl.mem memo.warm_regions region then
        {
          st with
          jit_cycles =
            st.jit_cycles -. float_of_int cfg.Machine_config.jit_base_cycles
            +. memo_lookup_cycles;
        }
      else begin
        Hashtbl.replace memo.warm_regions region ();
        st
      end
    in
    if Obs.on obs then
      Obs.emit obs
        (Trace.Jit_span
           {
             dir = Trace.Exit;
             region;
             commands = st.commands;
             cycles = st.jit_cycles;
           });
    Hashtbl.replace memo.table key (cmds, st);
    (cmds, st)

let memo_hits m = m.hits
let memo_misses m = m.misses
