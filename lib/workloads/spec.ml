(* The request schema: one JSON job spec per line, as `infs_run batch`
   reads it and `infs_run serve` answers it. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report

type t = {
  workload : string;
  paradigm : string;
  functional : bool;
  optimize : bool;
  warm : bool;
  pre_transposed : bool;
  charge_jit : bool;
  tile : int array option;
  policy : Decision.policy;
  timeout_s : float option;
  faults : Fault.spec option;
}

let default workload =
  {
    workload;
    paradigm = "inf-s";
    functional = false;
    optimize = true;
    warm = false;
    pre_transposed = false;
    charge_jit = true;
    tile = None;
    policy = Decision.Heuristic;
    timeout_s = None;
    faults = None;
  }

let ( let* ) = Result.bind

let of_json j =
  let bool_field name default =
    match Json.member name j with
    | None -> Ok default
    | Some v -> (
      match Json.to_bool v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "field %s must be a boolean" name))
  in
  match Option.bind (Json.member "workload" j) Json.to_str with
  | None -> Error "spec needs a \"workload\" string field"
  | Some workload ->
    let* functional = bool_field "functional" false in
    let* optimize = bool_field "optimize" true in
    let* warm = bool_field "warm" false in
    let* pre_transposed = bool_field "pre_transposed" false in
    let* charge_jit = bool_field "charge_jit" true in
    let* tile =
      match Json.member "tile" j with
      | None -> Ok None
      | Some v -> (
        match Option.map (List.map Json.to_int) (Json.to_list v) with
        | Some ints when List.for_all Option.is_some ints -> (
          let tile = Array.of_list (List.map Option.get ints) in
          (* the rank is left to the engine: an override applies only to
             regions of its own rank *)
          match Layout.check_tile Machine_config.default tile with
          | Ok () -> Ok (Some tile)
          | Error e -> Error ("field tile: " ^ e))
        | _ -> Error "field tile must be an array of integers")
    in
    (* "eq2": either a single override string applied to every kernel, or
       an object of per-kernel overrides with "*" as the default — the
       spec-level encoding of a tuned decision table *)
    let* policy =
      match Json.member "eq2" j with
      | None -> Ok Decision.Heuristic
      | Some (Json.Str s) -> (
        match Decision.override_of_string s with
        | Ok Decision.Auto -> Ok Decision.Heuristic
        | Ok ov -> Ok (Decision.Tuned { default = ov; per_kernel = [] })
        | Error e -> Error ("field eq2: " ^ e))
      | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, v) ->
            let* default, per_kernel = acc in
            match Option.map Decision.override_of_string (Json.to_str v) with
            | Some (Ok ov) ->
              if k = "*" then Ok (ov, per_kernel) else Ok (default, (k, ov) :: per_kernel)
            | Some (Error e) -> Error ("field eq2: " ^ e)
            | None -> Error "field eq2: overrides must be strings")
          (Ok (Decision.Auto, []))
          kvs
        |> Result.map (fun (default, per_kernel) ->
               Decision.Tuned { default; per_kernel = List.sort compare per_kernel })
      | Some _ -> Error "field eq2 must be a string or an object"
    in
    let* timeout_s =
      match Json.member "timeout_s" j with
      | None -> Ok None
      | Some v -> (
        match Json.to_num v with
        | Some f when Float.is_finite f && f > 0.0 -> Ok (Some f)
        | _ -> Error "field timeout_s must be a finite positive number")
    in
    let* faults =
      match Json.member "faults" j with
      | None -> Ok None
      | Some v -> (
        match Json.to_str v with
        | None -> Error "field faults must be a spec string"
        | Some s -> (
          match Fault.parse s with
          | Ok sp -> Ok (Some sp)
          | Error e -> Error ("field faults: " ^ e)))
    in
    let* paradigm =
      match Json.member "paradigm" j with
      | None -> Ok "inf-s"
      | Some v -> Option.to_result ~none:"field paradigm must be a string" (Json.to_str v)
    in
    Ok
      {
        workload;
        paradigm;
        functional;
        optimize;
        warm;
        pre_transposed;
        charge_jit;
        tile;
        policy;
        timeout_s;
        faults;
      }

(* same bar as the engine test suite's end-to-end correctness checks *)
let functional_tolerance = 1e-3

(* Each run re-resolves its workload from the catalog, so concurrent runs
   never share mutable workload state (notably the lazy input arrays);
   compiled fat binaries are shared through the engine's compile cache.
   With [with_metrics] the run owns a fresh registry (registries are
   single-domain) and returns its snapshot as JSON; the snapshot holds
   only simulated quantities, so report lines stay byte-identical across
   pool sizes. [with_prof] likewise gives the run a private span profiler
   (returned for the caller to merge in submission order). *)
let exec scale ?(with_metrics = false) ?(with_prof = false) ~faults spec =
  let* w = Catalog.find scale spec.workload in
  let* p = E.paradigm_of_string spec.paradigm in
  let metrics = if with_metrics then Metrics.create () else Metrics.null in
  let prof = if with_prof then Prof.create () else Prof.null in
  let options =
    {
      E.default_options with
      functional = spec.functional;
      optimize = spec.optimize;
      warm_data = spec.warm;
      pre_transposed = spec.pre_transposed;
      charge_jit = spec.charge_jit;
      tile_override = spec.tile;
      decision_policy = spec.policy;
      share_compile = true;
      metrics;
      prof;
      faults = Option.value ~default:faults spec.faults;
    }
  in
  let* r = E.run ~options p w in
  (* Fault mitigation guarantees a correct functional result; a mismatch
     under an armed fault model means mitigation fell short — surface it
     as the pool's structured Degraded outcome (never retried: the seeded
     model would re-derive it) rather than a crash or a silent wrong
     answer. *)
  (match (r.R.faults, r.R.correctness) with
  | Some _, `Checked err when err > functional_tolerance ->
    raise
      (Pool.Degradation
         (Printf.sprintf "functional mismatch under faults: max error %.3e exceeds %.0e" err
            functional_tolerance))
  | _ -> ());
  let mj =
    if with_metrics then
      (* whether THIS run hit the process-wide compile cache depends on
         pool scheduling, not on the spec — keep those series out of the
         line or the pool size would change the bytes *)
      Some
        (Metrics.to_json
           (List.filter
              (fun (s : Metrics.series) ->
                s.Metrics.name <> "compile_cache.hits" && s.Metrics.name <> "compile_cache.misses")
              (Metrics.snapshot metrics)))
    else None
  in
  Ok (r, mj, prof)

let handler scale ~faults j =
  let* spec = of_json j in
  let* r, _, _ = exec scale ~faults spec in
  Ok (R.to_json r)

let matrix_paradigms = [ "base1"; "base"; "near-l3"; "in-l3"; "inf-s"; "inf-s-nojit" ]

let matrix scale =
  List.concat_map
    (fun w ->
      List.map
        (fun p -> (Printf.sprintf "%s x %s" w p, { (default w) with paradigm = p }))
        matrix_paradigms)
    (Catalog.names scale)
