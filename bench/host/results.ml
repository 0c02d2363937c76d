(* Metric dictionary, run records, the result file (schema
   infs-bench-host-1) and the paired comparison of two result files. *)

type better = Lower | Higher

type def = { name : string; unit_ : string; better : better }

let def better unit_ name = { name; unit_; better }
let lower = def Lower
let higher = def Higher

(* End-to-end metrics, measured with tracing off. Every workload reports
   the common ones — the benchmark definition's list; [slo_rps] exists on
   serve-front only, and [fail_ratio] is 0 on working code (its count is
   the run's [failed]). *)
let common_e2e =
  [
    lower "s" "setup_s";
    lower "s" "pass_s";
    lower "s" "cpu_s";
    higher "cycles/s" "sim_rate";
    lower "ms" "p50_ms";
    lower "ms" "tail_ms";
    lower "MB" "peak_rss_mb";
  ]

let e2e = common_e2e @ [ higher "1/s" "slo_rps"; lower "ratio" "fail_ratio" ]

(* Per-layer metrics of the traced run. The common ones are measured on
   every workload; the rest belong to the layer one workload drives
   (tune-sweep: tune, compile cache; serve-front: serve, shard, memory
   split, generator). *)
let common_layers =
  [
    lower "ms" "frontend.extract_ms";
    lower "ms" "egraph.optimize_ms";
    lower "MB" "egraph.alloc_mb";
    lower "count" "egraph.rounds";
    lower "ms" "compiler.fat_binary_ms";
    lower "MB" "engine.live_mb_per_pass";
    lower "ms" "engine.run_ms.base";
    lower "ms" "engine.run_ms.near-l3";
    lower "ms" "engine.run_ms.in-l3";
    lower "ms" "engine.run_ms.inf-s";
    lower "MB" "engine.alloc_mb_per_run";
    higher "ratio" "costmemo.hit_ratio";
    lower "us" "jit.lower_us";
    lower "ns" "imc.execute_ns_per_cmd";
    higher "ratio" "jit.memo_hit_ratio";
    lower "count" "jit.commands";
    higher "ratio" "pool.cpu_util";
    higher "ratio" "pool.speedup";
    lower "ms" "host.calib_ms";
    lower "%" "trace.overhead_pct";
  ]

let layers =
  common_layers
  @ [
      lower "count" "tune.candidates";
      higher "1/s" "tune.candidates_per_s";
      higher "ratio" "engine.compile_cache_hit_ratio";
      lower "ms" "serve.queue_wait_ms";
      lower "ms" "serve.run_ms";
      lower "ms" "serve.write_back_ms";
      higher "ratio" "shard.route_hot_ratio";
      lower "ms" "shard.proxy_ms";
      lower "ms" "serve.hot_tail_ms";
      lower "ms" "serve.cold_tail_ms";
      lower "count" "serve.shed";
      lower "MB" "mem.front_rss_mb";
      lower "MB" "mem.shard_rss_mb";
      lower "ms" "gen.lag_tail_ms";
    ]

let find_def name = List.find_opt (fun d -> d.name = name) (e2e @ layers)

(* A measured value; [None] when the source row was missing (a side file
   the server did not write, say), which the report prints as null. *)
type value = { v : float option; detail : (string * Json.t) list }

type run = {
  workload : string;
  seed : int;
  seconds : int;
  layers_run : bool;
  attempted : int;
  failed : int;
  flags : string list;  (** reasons this run's numbers are suspect *)
  values : (string * value) list;
}

let num v = { v = Some v; detail = [] }
let missing = { v = None; detail = [] }

let of_sample ?(detail = []) (s : Sample.t) =
  {
    v = Some s.median;
    detail =
      [ ("q25", Json.Num s.q25); ("q75", Json.Num s.q75); ("n", Json.Num (float_of_int s.n)) ]
      @ detail;
  }

let value_of run name = Option.bind (List.assoc_opt name run.values) (fun x -> x.v)

(* Host-speed normalization of the end-to-end metrics in [names]. This
   host's speed drifts by tens of percent over minutes, far more than the
   code changes the benchmark must see, and the noise probe tracks that
   drift. Those metrics are therefore reported on the reference host's
   clock: times scaled by the reference probe time over [calib], the
   median probe time next to the phase that measured them ([sim_rate]
   inversely). The measured value stays in the detail as "raw". *)
let normalize ~calib names values =
  let f = Host.reference_calib_ms /. calib in
  let scale k x =
    {
      v = Option.map (fun v -> v *. k) x.v;
      detail =
        List.map
          (function
            | (("q25" | "q75") as n), Json.Num q -> (n, Json.Num (q *. k))
            | d -> d)
          x.detail
        @ [ ("raw", match x.v with Some v -> Json.Num v | None -> Json.Null) ];
    }
  in
  List.map
    (fun (name, x) ->
      if not (List.mem name names) then (name, x)
      else (name, scale (if name = "sim_rate" then 1.0 /. f else f) x))
    values

(* ---- the result file ---- *)

let schema = "infs-bench-host-1"

let run_to_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("seconds", Json.Num (float_of_int r.seconds));
      ("layers", Json.Bool r.layers_run);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("flags", Json.Arr (List.map (fun f -> Json.Str f) r.flags));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, x) ->
               let unit_ = match find_def name with Some d -> d.unit_ | None -> "" in
               ( name,
                 Json.Obj
                   ([
                      ("value", match x.v with Some v -> Json.Num v | None -> Json.Null);
                      ("unit", Json.Str unit_);
                    ]
                   @ x.detail) ))
             r.values) );
    ]

let run_of_json j =
  let str k = Option.bind (Json.member k j) Json.to_str |> Option.value ~default:"" in
  let int k = Option.bind (Json.member k j) Json.to_int |> Option.value ~default:0 in
  {
    workload = str "workload";
    seed = int "seed";
    seconds = int "seconds";
    layers_run = Option.bind (Json.member "layers" j) Json.to_bool = Some true;
    attempted = int "attempted";
    failed = int "failed";
    flags =
      Option.bind (Json.member "flags" j) Json.to_list
      |> Option.value ~default:[]
      |> List.filter_map Json.to_str;
    values =
      (match Json.member "metrics" j with
      | Some (Json.Obj kvs) ->
        List.map
          (fun (k, m) ->
            (k, { v = Option.bind (Json.member "value" m) Json.to_num; detail = [] }))
          kvs
      | _ -> []);
  }

let read_file path =
  match Host.read_file path with
  | None -> Error (path ^ ": cannot read")
  | Some text -> (
    match Json.parse text with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok j -> (
      match (Option.bind (Json.member "schema" j) Json.to_str, Json.member "runs" j) with
      | Some s, Some (Json.Arr runs) when s = schema -> Ok (List.map run_of_json runs)
      | _ -> Error (path ^ ": not an " ^ schema ^ " file")))

(* Append [runs] to the result file at [path], creating it if needed;
   earlier runs are kept byte for byte. *)
let append path runs =
  let old =
    match Option.map Json.parse (Host.read_file path) with
    | None -> []
    | Some (Ok j) when Option.bind (Json.member "schema" j) Json.to_str = Some schema ->
      Option.bind (Json.member "runs" j) Json.to_list |> Option.value ~default:[]
    | Some _ -> failwith (path ^ ": not an " ^ schema ^ " file")
  in
  let doc =
    Json.Obj
      [ ("schema", Json.Str schema); ("runs", Json.Arr (old @ List.map run_to_json runs)) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n')

(* ---- printing ---- *)

let fmt_value = function
  | None -> "null"
  | Some v when Float.is_integer v && Float.abs v < 1e15 -> Printf.sprintf "%.0f" v
  | Some v when Float.abs v >= 1e5 || Float.abs v < 1e-3 -> Printf.sprintf "%.4e" v
  | Some v -> Printf.sprintf "%.4f" v

let print_run r =
  Printf.printf "== %s (seed %d, %d s%s): %d attempted, %d failed%s\n" r.workload r.seed
    r.seconds
    (if r.layers_run then ", layers" else "")
    r.attempted r.failed
    (if r.flags = [] then "" else "  FLAGGED: " ^ String.concat "; " r.flags);
  List.iter
    (fun (name, x) ->
      let unit_ = match find_def name with Some d -> d.unit_ | None -> "" in
      let detail =
        List.filter_map
          (fun (k, j) ->
            match j with
            | Json.Num f -> Some (Printf.sprintf "%s %s" k (fmt_value (Some f)))
            | Json.Str s -> Some (Printf.sprintf "%s %s" k s)
            | _ -> None)
          x.detail
      in
      Printf.printf "  %-30s %14s %-9s%s\n" name (fmt_value x.v) unit_
        (if detail = [] then "" else "  (" ^ String.concat ", " detail ^ ")"))
    r.values

(* The last stdout line of a benchmark-definition run: the common metrics
   of the run's kind, value and unit. *)
let summary_line r =
  let defs = if r.layers_run then common_layers else common_e2e in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (r.failed = 0));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun d ->
                  ( d.name,
                    Json.Obj
                      [
                        ( "value",
                          match value_of r d.name with Some v -> Json.Num v | None -> Json.Null );
                        ("unit", Json.Str d.unit_);
                      ] ))
                defs) );
       ])

(* ---- compare ---- *)

(* bounds from the benchmark definition, when it is at hand *)
let bounds () =
  match Option.map Json.parse (Host.read_file "BENCHMARK.json") with
  | Some (Ok j) ->
    Option.bind (Json.member "end_to_end" j) Json.to_list
    |> Option.value ~default:[]
    |> List.filter_map (fun m ->
           match
             ( Option.bind (Json.member "name" m) Json.to_str,
               Option.bind (Json.member "bound" m) Json.to_num )
           with
           | Some n, Some b -> Some (n, b)
           | _ -> None)
  | _ -> []

(* The paired rule for claiming a change: run parent (A) and change (B)
   alternately, at least ten pairs; B wins a metric when it reads better
   in >= 9/10 of the pairs (ties count for neither side) and the medians
   differ by more than A's own interquartile range. The mirror image is a
   regression, and so is a median that moved the wrong way by more than
   the metric's bound; anything else is unresolved — never "unchanged".
   Returns whether any metric regressed. *)
let compare_files a b =
  let bounds = bounds () in
  let key r = (r.workload, r.layers_run) in
  let regressed = ref false in
  List.iter
    (fun k ->
      let ra = List.filter (fun r -> key r = k) a
      and rb = List.filter (fun r -> key r = k) b in
      if rb <> [] then begin
        Printf.printf "== %s%s: %d runs A, %d runs B\n" (fst k)
          (if snd k then " (layers)" else "")
          (List.length ra) (List.length rb);
        List.concat_map (fun r -> List.map fst r.values) ra
        |> List.sort_uniq compare
        |> List.iter (fun name ->
               let vals rs = Array.of_list (List.filter_map (fun r -> value_of r name) rs) in
               let va = vals ra and vb = vals rb in
               match find_def name with
               | Some d when va <> [||] && vb <> [||] ->
                 let sa = Sample.of_list (Array.to_list va) and sb = Sample.of_list (Array.to_list vb) in
                 let pairs = min (Array.length va) (Array.length vb) in
                 let better x y = match d.better with Lower -> x < y | Higher -> x > y in
                 let count f = List.length (List.filter f (List.init pairs Fun.id)) in
                 let wins = count (fun i -> better vb.(i) va.(i))
                 and losses = count (fun i -> better va.(i) vb.(i)) in
                 let gap = Float.abs (sb.median -. sa.median) > sa.q75 -. sa.q25 in
                 let need = Float.to_int (Float.ceil (0.9 *. float_of_int pairs)) in
                 let worse =
                   (match d.better with Lower -> sb.median -. sa.median | Higher -> sa.median -. sb.median)
                   /. Float.abs sa.median
                 in
                 let bound = if snd k then None else List.assoc_opt name bounds in
                 let verdict =
                   if pairs < 10 then "unresolved (fewer than 10 pairs)"
                   else if wins >= need && gap then "improved"
                   else if losses >= need && gap then "regressed"
                   else
                     match bound with
                     | Some bnd when worse > bnd -> Printf.sprintf "regressed beyond bound %g" bnd
                     | Some bnd -> Printf.sprintf "unresolved (within bound %g)" bnd
                     | None -> "unresolved"
                 in
                 if String.starts_with ~prefix:"regressed" verdict then regressed := true;
                 Printf.printf "  %-28s A %s [%s..%s]  B %s [%s..%s] %s  wins %d/%d  -> %s\n" name
                   (fmt_value (Some sa.median)) (fmt_value (Some sa.q25))
                   (fmt_value (Some sa.q75)) (fmt_value (Some sb.median))
                   (fmt_value (Some sb.q25)) (fmt_value (Some sb.q75)) d.unit_ wins pairs verdict
               | _ -> ())
      end)
    (List.sort_uniq compare (List.map key a));
  !regressed
