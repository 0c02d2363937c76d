type hints = {
  shift_dims : int list;
  bc_dims : int list;
  reduce_dims : int list;
  primary_array : string option;
  aligned_arrays : string list;
}

type region = {
  kernel : Ast.kernel;
  index : int;
  sdfg : Sdfg.t;
  initial : Tdfg.t;
  optimized : Tdfg.t;
  info : Kernel_info.t;
  schedules : (int * Schedule.t) list;
  hints : hints;
  opt_stats : Extract.opt_stats;
  fallback : string option;
  live : Tdfg.id array;
  ws_vars : string array;
  dom_vars : string array;
  ops : (Op.t * int) list;
}

type t = {
  prog : Ast.program;
  regions : region list;
  extents : (string * Symaff.t list) list;
  by_name : (string, region) Hashtbl.t;
}

let sram_geometries = [ 256; 512 ]

let derive_hints g =
  let live = Tdfg.live_nodes g in
  let shift = ref [] and bcast = ref [] and red = ref [] in
  List.iter
    (fun id ->
      match Tdfg.kind g id with
      | Tdfg.Mv { dim; dist; _ } when dist <> 0 -> shift := dim :: !shift
      | Tdfg.Bc { dim; _ } -> bcast := dim :: !bcast
      | Tdfg.Reduce { dim; _ } -> red := dim :: !red
      | _ -> ())
    live;
  let primary =
    (* the reduced array when there is a reduction, otherwise the output *)
    match Tdfg.outputs g with
    | Tdfg.Out_tensor { array; _ } :: _ -> Some array
    | Tdfg.Out_stream { array; _ } :: _ -> Some array
    | [] -> None
  in
  {
    shift_dims = List.sort_uniq compare !shift;
    bc_dims = List.sort_uniq compare !bcast;
    reduce_dims = List.sort_uniq compare !red;
    primary_array = primary;
    aligned_arrays =
      List.sort_uniq String.compare (Tdfg.input_arrays g @ Tdfg.output_arrays g);
  }

let empty_hints =
  {
    shift_dims = [];
    bc_dims = [];
    reduce_dims = [];
    primary_array = None;
    aligned_arrays = [];
  }

module Svars = Set.Make (String)

let add_aff_vars acc a =
  List.fold_left (fun acc v -> Svars.add v acc) acc (Symaff.vars a)

(* Variables the workset resolution reads: host-loop bounds, symbolic
   distinct extents, and — for streams whose footprint falls back to the
   whole array — the array declaration's dimension expressions. *)
let workset_vars prog (info : Kernel_info.t) =
  let acc =
    List.fold_left
      (fun acc (lo, hi) -> add_aff_vars (add_aff_vars acc lo) hi)
      Svars.empty info.loops
  in
  let acc =
    List.fold_left
      (fun acc (s : Kernel_info.stream) ->
        match s.distinct with
        | Some extents -> List.fold_left add_aff_vars acc extents
        | None -> (
          match
            List.find_opt
              (fun (a : Ast.array_decl) -> a.aname = s.array)
              prog.Ast.arrays
          with
          | Some decl -> List.fold_left add_aff_vars acc decl.dims
          | None -> acc))
      acc info.streams
  in
  Array.of_list (Svars.elements acc)

(* Variables a live finite-node domain reads — the inputs of both the
   engine's domain resolution and the lattice shape its layout tiles. *)
let domain_vars g live =
  let acc =
    Array.fold_left
      (fun acc id ->
        match Tdfg.domain g id with
        | Tdfg.Finite r ->
          List.fold_left
            (fun acc (lo, hi) -> add_aff_vars (add_aff_vars acc lo) hi)
            acc (Symrect.ranges r)
        | Tdfg.Infinite -> acc)
      Svars.empty live
  in
  Array.of_list (Svars.elements acc)

let compile_region ~optimize ~extents ~index prog (k : Ast.kernel) =
  let info = Kernel_info.analyze prog k in
  let sdfg = Sdfg.of_kernel prog k in
  let region ~initial ~optimized ~schedules ~hints ~opt_stats ~fallback =
    (* only a region without a fallback can run in memory and needs its
       live nodes; resolving their domains here also fills the graph's
       domain memo before the graph is shared *)
    let live =
      if fallback = None then Array.of_list (Tdfg.live_nodes optimized) else [||]
    in
    {
      kernel = k;
      index;
      sdfg;
      initial;
      optimized;
      info;
      schedules;
      hints;
      opt_stats;
      fallback;
      live;
      ws_vars = workset_vars prog info;
      dom_vars = domain_vars optimized live;
      ops = Tdfg.op_multiset optimized;
    }
  in
  match Frontend.extract prog k with
  | Error e ->
    let g = Tdfg.create ~name:k.kname ~dims:1 ~dtype:Dtype.Fp32 in
    region ~initial:g ~optimized:g ~schedules:[] ~hints:empty_hints
      ~opt_stats:Extract.no_opt
      ~fallback:(Some (Frontend.error_to_string e))
  | Ok initial ->
    let optimized, opt_stats =
      if optimize then Extract.optimize ~arrays:extents initial
      else (initial, Extract.no_opt)
    in
    let schedules =
      List.filter_map
        (fun wl ->
          match Schedule.compile ~wordlines:wl optimized with
          | Ok s -> Some (wl, s)
          | Error _ -> None)
        sram_geometries
    in
    (* If the optimized graph spills everywhere, fall back to the initial
       tDFG (which allocates fewer temporaries), then to spilling schedules
       (the §6 limitation-3 extension). *)
    let optimized, schedules =
      if schedules = [] then
        ( initial,
          List.filter_map
            (fun wl ->
              match Schedule.compile ~wordlines:wl initial with
              | Ok s -> Some (wl, s)
              | Error _ -> None)
            sram_geometries )
      else (optimized, schedules)
    in
    let optimized, schedules =
      if schedules = [] then
        ( optimized,
          List.filter_map
            (fun wl ->
              match Schedule.compile ~allow_spill:true ~wordlines:wl optimized with
              | Ok s -> Some (wl, s)
              | Error _ -> None)
            sram_geometries )
      else (optimized, schedules)
    in
    let fallback =
      if schedules = [] then Some "register spill on all SRAM geometries"
      else None
    in
    region ~initial ~optimized ~schedules ~hints:(derive_hints optimized)
      ~opt_stats ~fallback

let compile ?(optimize = true) prog =
  match Ast.validate prog with
  | Error e -> Error (Printf.sprintf "program %s: %s" prog.Ast.name e)
  | Ok () ->
    let extents = Frontend.array_extents prog in
    let by_name = Hashtbl.create 8 in
    (* [List.map] applies its function in order, so indices follow the
       syntactic order of first occurrences *)
    let regions =
      List.map
        (fun (k : Ast.kernel) ->
          match Hashtbl.find_opt by_name k.kname with
          | Some first -> compile_region ~optimize ~extents ~index:first.index prog k
          | None ->
            let r = compile_region ~optimize ~extents ~index:(Hashtbl.length by_name) prog k in
            Hashtbl.add by_name k.kname r;
            r)
        (Ast.kernels prog)
    in
    Ok { prog; regions; extents; by_name }

let region_of t name = Hashtbl.find_opt t.by_name name
let region_count t = Hashtbl.length t.by_name
