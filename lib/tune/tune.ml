module E = Infinity_stream.Engine
module Report = Infinity_stream.Report
module Workload = Infinity_stream.Workload

(* ---- candidate configurations ---- *)

type config = {
  paradigm : E.paradigm;
  tile : int array option;
  eq2 : Decision.override;
  per_kernel : (string * Decision.override) list;
      (* sorted by kernel name; only populated by the refinement pass *)
}

type scored = { config : config; cycles : float }

type result = {
  workload : string;
  key : string;
  budget : int;
  candidates : int;  (* enumerated uniform candidates, pre-truncation *)
  explored : scored list;  (* in exploration order; [] on a cache hit *)
  winner : scored;
  baseline : scored;  (* candidate 0: Inf-S under the Eq. 2 heuristic *)
  gap : float;  (* baseline cycles / winner cycles; >= 1.0 *)
  from_cache : bool;
}

let policy_of c =
  match (c.eq2, c.per_kernel) with
  | Decision.Auto, [] -> Decision.Heuristic
  | default, per_kernel -> Decision.Tuned { default; per_kernel }

let baseline_config =
  { paradigm = E.Inf_s; tile = None; eq2 = Decision.Auto; per_kernel = [] }

(* The searched paradigms. [Base_1] is a measurement baseline (one thread,
   never faster than [Base]) and [Inf_s_nojit] an accounting variant of
   [Inf_s], so neither is a deployable choice. *)
let search_paradigms = [ E.Inf_s; E.In_l3; E.Near_l3; E.Base ]

(* Eq. 2 overrides worth trying per paradigm: under In-L3 the default path
   already always offloads, so [Force_imc] is indistinguishable from
   [Auto]. *)
let overrides_for = function
  | E.In_l3 -> [ Decision.Auto; Decision.Force_core ]
  | E.Inf_s | E.Inf_s_nojit ->
    [ Decision.Auto; Decision.Force_imc; Decision.Force_core ]
  | E.Base_1 | E.Base | E.Near_l3 -> [ Decision.Auto ]

let has_offload_boundary = function
  | E.In_l3 | E.Inf_s | E.Inf_s_nojit -> true
  | E.Base_1 | E.Base | E.Near_l3 -> false

(* Tile menu: every distinct (rank, dtype) among the workload's mappable
   regions contributes the full power-of-two candidate set for a generic
   rank-sized lattice. The engine applies a tile override only to regions
   of matching rank and falls back when the tile is invalid for the
   concrete shape, so an over-approximated menu is safe — a useless tile
   simply scores as the fallback path. *)
let tile_menu cfg (fb : Fat_binary.t) =
  let shapes =
    List.filter_map
      (fun (r : Fat_binary.region) ->
        match r.fallback with
        | Some _ -> None
        | None ->
          let rank = Tdfg.lattice_dims r.optimized in
          let epl =
            cfg.Machine_config.line_bytes / Dtype.bytes (Tdfg.dtype r.optimized)
          in
          if rank > 0 && epl > 0 then Some (rank, epl) else None)
      fb.Fat_binary.regions
  in
  let shapes = List.sort_uniq compare shapes in
  let tiles =
    List.concat_map
      (fun (rank, epl) ->
        let shape = Array.make rank cfg.Machine_config.sram_bitlines in
        List.map
          (fun (l : Layout.t) -> l.Layout.tile)
          (Layout.candidates cfg ~shape ~elems_per_line:epl))
      shapes
  in
  List.sort_uniq compare tiles

(* Ordered so that a small budget still covers the macro space: first every
   paradigm x Eq. 2-override combination under the default layout
   heuristic, then the tile sweeps. Candidate 0 is always the baseline. *)
let enumerate cfg fb =
  let tiles = List.map Option.some (tile_menu cfg fb) in
  let combos =
    List.concat_map
      (fun paradigm ->
        List.map (fun eq2 -> (paradigm, eq2)) (overrides_for paradigm))
      search_paradigms
  in
  let macro =
    List.map
      (fun (paradigm, eq2) -> { paradigm; tile = None; eq2; per_kernel = [] })
      combos
  in
  let sweeps =
    List.concat_map
      (fun (paradigm, eq2) ->
        if has_offload_boundary paradigm then
          List.map (fun tile -> { paradigm; tile; eq2; per_kernel = [] }) tiles
        else [])
      combos
  in
  baseline_config
  :: List.filter (fun c -> c <> baseline_config) (macro @ sweeps)

(* ---- scoring ---- *)

(* One fast sim run: no functional evaluation, no trace/metrics/faults. *)
let score_options (base : E.options) c =
  {
    base with
    E.functional = false;
    trace = Trace.null;
    metrics = Metrics.null;
    faults = Fault.none;
    tile_override = c.tile;
    decision_policy = policy_of c;
  }

(* A kernel is overridable when its decision-table row carries real Eq. 2
   latencies; rows noted for scalar fallbacks / missing schedules /
   unmappable layouts have both latencies zeroed and no override can move
   them. *)
let overridable_kernels (r : Report.t) =
  List.filter_map
    (fun (d : Report.decision_entry) ->
      if d.Report.core_cycles = 0.0 && d.Report.imc_cycles = 0.0 then None
      else Some d.Report.kernel)
    r.Report.decisions

let score program base resolve c =
  match E.run_program ~options:(score_options base c) program c.paradigm (resolve ()) with
  | Ok r -> (c, Some (r.Report.cycles, overridable_kernels r))
  | Error _ -> (c, None)

(* A score that raises is dropped. *)
let score_batch ~jobs program base resolve cands =
  List.concat_map
    (function Ok (c, Some (cycles, kernels)) -> [ (c, cycles, kernels) ] | _ -> [])
    (Pool.run_list ~jobs (List.map (fun c () -> score program base resolve c) cands))

(* ---- memoization ---- *)

let default_budget = 32

(* The tuning decision depends on everything a score run depends on: the
   compile key (program, machine, optimizer flag), the concrete parameters
   (compilation is symbolic in the sizes, scoring is not), the cost-model
   option knobs, and the search budget. *)
let memo_key (base : E.options) ~budget (w : Workload.t) =
  let params =
    List.sort compare w.Workload.params
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
    |> String.concat ","
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            E.compile_key base w;
            params;
            string_of_bool base.E.charge_jit;
            string_of_bool base.E.warm_data;
            string_of_bool base.E.pre_transposed;
            string_of_int budget;
          ]))

let memo : (string, result) Ccache.t = Ccache.create ()

let cache_stats () = (Ccache.hits memo, Ccache.misses memo, Ccache.length memo)
let cache_clear () = Ccache.reset memo

(* ---- the search ---- *)

let set_override per_kernel kernel ov =
  List.sort compare ((kernel, ov) :: List.remove_assoc kernel per_kernel)

let tune ?(options = E.default_options) ?(budget = default_budget) ?(jobs = 1)
    resolve =
  let budget = max 1 budget in
  let w = resolve () in
  let key = memo_key options ~budget w in
  match Ccache.find_opt memo key with
  | Some r -> Ok { r with from_cache = true; explored = [] }
  | None -> (
    (* one compile per search: the candidate menu comes from its fat
       binary and every scoring run, on any pool domain, reuses it and its
       plans, which die with the search *)
    match E.compile_program options w with
    | Error e -> Error ("tune: compile failed: " ^ e)
    | Ok program ->
      let all_cands = enumerate options.E.cfg (E.program_fat_binary program) in
      let cands =
        List.filteri (fun i _ -> i < budget) all_cands
      in
      let phase1 = score_batch ~jobs program options resolve cands in
      (match phase1 with
      | (c0, base_cycles, _) :: _ when c0 = baseline_config ->
        let baseline = { config = c0; cycles = base_cycles } in
        let explored =
          List.map (fun (c, cy, _) -> { config = c; cycles = cy }) phase1
        in
        let best_of =
          List.fold_left (fun best s ->
              if s.cycles < best.cycles then s else best)
        in
        let winner0 = best_of baseline explored in
        let kernels_of cfg' =
          List.concat_map
            (fun (c, _, ks) -> if c = cfg' then ks else [])
            phase1
        in
        (* Greedy per-kernel refinement: from the uniform winner, score
           every single-kernel override flip in parallel, accept the best
           strictly-improving flip, repeat until dry or the budget is
           spent. Only paradigms with an offload boundary have anything to
           flip. *)
        let rec refine winner kernels explored used =
          if used >= budget || not (has_offload_boundary winner.config.paradigm)
          then (winner, explored)
          else
            let flips =
              List.concat_map
                (fun k ->
                  let current =
                    Decision.resolve (policy_of winner.config) ~kernel:k
                  in
                  List.filter_map
                    (fun ov ->
                      if ov = current then None
                      else
                        Some
                          {
                            winner.config with
                            per_kernel =
                              set_override winner.config.per_kernel k ov;
                          })
                    (overrides_for winner.config.paradigm))
                kernels
            in
            let flips = List.filteri (fun i _ -> used + i < budget) flips in
            if flips = [] then (winner, explored)
            else
              let scored3 = score_batch ~jobs program options resolve flips in
              let scored =
                List.map (fun (c, cy, _) -> { config = c; cycles = cy }) scored3
              in
              let explored = explored @ scored in
              let used = used + List.length flips in
              let best = best_of winner scored in
              if best.cycles < winner.cycles then
                refine best kernels explored used
              else (winner, explored)
        in
        let winner, explored =
          refine winner0 (kernels_of winner0.config) explored
            (List.length cands)
        in
        let r =
          {
            workload = w.Workload.wname;
            key;
            budget;
            candidates = List.length all_cands;
            explored;
            winner;
            baseline;
            gap =
              (if winner.cycles <= 0.0 then 1.0
               else baseline.cycles /. winner.cycles);
            from_cache = false;
          }
        in
        Ccache.insert memo ~key r;
        Ok r
      | _ ->
        Error
          (Printf.sprintf "tune: baseline run failed for %s" w.Workload.wname)))

(* ---- consuming a tuned decision ---- *)

let apply r (base : E.options) =
  ( r.winner.config.paradigm,
    {
      base with
      E.tile_override = r.winner.config.tile;
      decision_policy = policy_of r.winner.config;
    } )

(* ---- deterministic JSON ---- *)

let config_to_json c =
  Json.Obj
    [
      ("paradigm", Json.Str (E.paradigm_to_string c.paradigm));
      ( "tile",
        match c.tile with
        | None -> Json.Null
        | Some t ->
          Json.Arr
            (Array.to_list (Array.map (fun d -> Json.Num (float_of_int d)) t))
      );
      ("eq2", Json.Str (Decision.override_name c.eq2));
      ( "per_kernel",
        Json.Obj
          (List.map
             (fun (k, ov) -> (k, Json.Str (Decision.override_name ov)))
             c.per_kernel) );
    ]

let scored_to_json s =
  Json.Obj [ ("config", config_to_json s.config); ("cycles", Json.Num s.cycles) ]

let result_to_json r =
  Json.Obj
    [
      ("schema", Json.Str "infs-tune-1");
      ("workload", Json.Str r.workload);
      ("key", Json.Str r.key);
      ("budget", Json.Num (float_of_int r.budget));
      ("candidates", Json.Num (float_of_int r.candidates));
      ("explored", Json.Arr (List.map scored_to_json r.explored));
      ("winner", scored_to_json r.winner);
      ("baseline", scored_to_json r.baseline);
      ("gap", Json.Num r.gap);
      ("from_cache", Json.Bool r.from_cache);
    ]

(* ---- parsing (disk-cache round trip) ---- *)

let ( let* ) = Result.bind

let req name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "tune json: missing or invalid field %s" name)

let config_of_json j =
  let* pname = req "paradigm" Json.to_str j in
  let* paradigm = E.paradigm_of_string pname in
  let* tile =
    match Json.member "tile" j with
    | Some Json.Null | None -> Ok None
    | Some t -> (
      match Option.map (List.map Json.to_int) (Json.to_list t) with
      | Some ds when List.for_all Option.is_some ds ->
        Ok (Some (Array.of_list (List.map Option.get ds)))
      | _ -> Error "tune json: invalid tile")
  in
  let* eq2_s = req "eq2" Json.to_str j in
  let* eq2 = Decision.override_of_string eq2_s in
  let* per_kernel =
    match Json.member "per_kernel" j with
    | None -> Ok []
    | Some (Json.Obj kvs) ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match Option.map Decision.override_of_string (Json.to_str v) with
          | Some (Ok ov) -> Ok ((k, ov) :: acc)
          | _ -> Error "tune json: invalid per_kernel override")
        (Ok []) kvs
      |> Result.map (List.sort compare)
    | Some _ -> Error "tune json: invalid per_kernel"
  in
  Ok { paradigm; tile; eq2; per_kernel }

let scored_of_json j =
  let* cj = req "config" Option.some j in
  let* config = config_of_json cj in
  let* cycles = req "cycles" Json.to_num j in
  Ok { config; cycles }

let result_of_json j =
  let* workload = req "workload" Json.to_str j in
  let* key = req "key" Json.to_str j in
  let* budget = req "budget" Json.to_int j in
  let* candidates = req "candidates" Json.to_int j in
  let* explored_js = req "explored" Json.to_list j in
  let* explored =
    List.fold_left
      (fun acc ej ->
        let* acc = acc in
        let* s = scored_of_json ej in
        Ok (s :: acc))
      (Ok []) explored_js
    |> Result.map List.rev
  in
  let* wj = req "winner" Option.some j in
  let* winner = scored_of_json wj in
  let* bj = req "baseline" Option.some j in
  let* baseline = scored_of_json bj in
  let* gap = req "gap" Json.to_num j in
  let* from_cache = req "from_cache" Json.to_bool j in
  Ok
    {
      workload;
      key;
      budget;
      candidates;
      explored;
      winner;
      baseline;
      gap;
      from_cache;
    }

(* ---- disk cache (cross-process memoization) ---- *)

let cache_schema = "infs-tune-cache-1"

let save_cache path =
  let entries =
    Ccache.fold
      (fun key r acc ->
        Json.Obj [ ("key", Json.Str key); ("result", result_to_json r) ] :: acc)
      memo []
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str cache_schema);
        ("entries", Json.Arr (List.rev entries));
      ]
  in
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string doc);
        output_char oc '\n');
    Ok ()
  with Sys_error e -> Error e

let load_cache path =
  let* text =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error e -> Error e
  in
  let* j = Json.parse text in
  let* schema = req "schema" Json.to_str j in
  if schema <> cache_schema then
    Error (Printf.sprintf "tune cache: unknown schema %s" schema)
  else
    let* entries = req "entries" Json.to_list j in
    List.fold_left
      (fun acc ej ->
        let* n = acc in
        let* key = req "key" Json.to_str ej in
        let* rj = req "result" Option.some ej in
        let* r = result_of_json rj in
        Ccache.insert memo ~key { r with from_cache = false };
        Ok (n + 1))
      (Ok 0) entries
