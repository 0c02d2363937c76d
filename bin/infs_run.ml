(* Command-line driver: run any workload of the suite under any paradigm
   and print the full report (cycles, breakdown, traffic, energy, JIT
   statistics, per-kernel timeline).

     infs_run list
     infs_run run --workload stencil2d --paradigm inf-s
     infs_run run -w mm/out -p base --functional --scale test
     infs_run compile -w conv2d          # show the optimized tDFG
     infs_run batch --matrix --scale test --jobs 4
     echo '{"workload":"mm/out","paradigm":"inf-s"}' | infs_run batch
*)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module WL = Infinity_stream.Workload
module Cat = Infs_workloads.Catalog
module Spec = Infs_workloads.Spec

let print_report (r : R.t) =
  Format.printf "%a@." R.pp r;
  Format.printf "@[<v>breakdown:@,";
  List.iter
    (fun (k, v) ->
      if v > 0.0 then
        Format.printf "  %-14s %12.3e cycles (%5.1f%%)@," k v
          (100.0 *. v /. Float.max 1.0 r.cycles))
    (Breakdown.to_assoc r.breakdown);
  Format.printf "@]@.";
  Format.printf "@[<v>NoC byte-hops:@,";
  List.iter
    (fun (k, v) -> if v > 0.0 then Format.printf "  %-12s %12.3e@," k v)
    r.noc_byte_hops;
  List.iter
    (fun (k, v) -> if v > 0.0 then Format.printf "  %-12s %12.3e bytes (local)@," k v)
    r.local_bytes;
  Format.printf "@]@.";
  if r.jit.invocations > 0 then
    Format.printf
      "JIT: %d lowerings (%d memoized), %.1f us avg, %.2f%% of runtime@."
      r.jit.invocations r.jit.memo_hits r.jit.avg_us
      (100.0 *. r.jit.total_jit_cycles /. Float.max 1.0 r.cycles);
  if List.length r.timeline > 1 then begin
    Format.printf "@[<v>timeline:@,";
    List.iter
      (fun (t : R.timeline_entry) ->
        Format.printf "  %-20s %-8s %12.3e cycles@," t.kernel
          (R.where_to_string t.where)
          t.cycles)
      r.timeline;
    Format.printf "@]@."
  end

open Cmdliner

let scale_conv = Arg.enum [ ("paper", `Paper); ("test", `Test) ]

let scale_arg =
  Arg.(value & opt scale_conv `Paper & info [ "scale" ] ~doc:"paper or test sizes")

let workload_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "w"; "workload" ] ~doc:"workload name (see `infs_run list`)")

let paradigm_arg =
  Arg.(
    value & opt string "inf-s"
    & info [ "p"; "paradigm" ] ~doc:"base1|base|near-l3|in-l3|inf-s|inf-s-nojit")

let functional_arg =
  Arg.(
    value & flag
    & info [ "functional" ]
        ~doc:"also compute values and check against the golden model (use --scale test)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"write a structured event trace of the run to $(docv)")

let trace_format_conv = Arg.enum [ ("jsonl", Trace.Jsonl); ("chrome", Trace.Chrome) ]

let trace_format_arg =
  Arg.(
    value & opt trace_format_conv Trace.Jsonl
    & info [ "trace-format" ]
        ~doc:"trace format: jsonl (one event per line, golden-testable) or \
              chrome (chrome://tracing / Perfetto timeline)")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"write a metrics snapshot (utilization counters, occupancy \
              gauges, latency histograms) to $(docv); .prom selects \
              Prometheus text exposition, anything else JSON")

let faults_conv =
  let parse s =
    match Fault.parse s with Ok sp -> Ok sp | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf sp -> Format.pp_print_string ppf (Fault.to_string sp))

let prof_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prof" ] ~docv:"FILE"
        ~doc:
          "profile the run with host-time spans and write the report to \
           $(docv): .json selects infs-prof-1 JSON, .folded flamegraph \
           folded stacks, anything else a text table. Span counts are \
           deterministic; times are wall-clock.")

let write_prof prof file =
  try
    Prof.write_file prof file;
    Format.printf "profile: %d span paths, %d calls -> %s@."
      (List.length (Prof.rows prof))
      (Prof.calls prof) file
  with Sys_error e ->
    prerr_endline ("error: cannot write profile file: " ^ e);
    exit 1

let faults_arg =
  Arg.(
    value & opt faults_conv Fault.none
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "arm the seeded hardware-fault model, e.g. \
           $(b,seed=42,sram=1e-4,noc=0.01,dram=0.001,watchdog=0.01). Keys: \
           seed, sram (bit-flip rate/cycle), noc (degrade probability), \
           jitter (slowdown factor), dram (stall probability), stall \
           (stall cycles), watchdog (hang probability), retries (bounded \
           retry budget before paradigm fallback). Identical specs give \
           byte-identical reports at any --jobs count.")

(* batch, tune and serve: worker domains, at least one *)
let jobs_arg =
  Term.(
    const (max 1)
    $ Arg.(
        value
        & opt int (Pool.recommended_jobs ())
        & info [ "j"; "jobs" ]
            ~doc:
              "worker domains (default: the machine's recommended domain \
               count); reports are byte-identical at any value"))

let list_cmd =
  let run scale = List.iter print_endline (Cat.names scale) in
  Cmd.v (Cmd.info "list" ~doc:"list available workloads (sorted)")
    Term.(const run $ scale_arg)

(* a tune report is JSON lines (one infs-tune-1 object per tuned
   workload); pick the entry for [wname] *)
let tuned_of_file file wname =
  match
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | exception End_of_file -> List.rev acc
          | l -> go (if String.trim l = "" then acc else l :: acc)
        in
        go [])
  with
  | exception Sys_error e -> Error ("cannot open tune report: " ^ e)
  | lines -> (
    let results =
      List.filter_map
        (fun l ->
          match Json.parse l with
          | Error _ -> None
          | Ok j -> Result.to_option (Infs_tune.Tune.result_of_json j))
        lines
    in
    match
      List.find_opt
        (fun (r : Infs_tune.Tune.result) -> r.Infs_tune.Tune.workload = wname)
        results
    with
    | Some r -> Ok r
    | None ->
      Error
        (Printf.sprintf "tune report %s has no entry for workload %s" file
           wname))

let run_cmd =
  let run scale wname pname functional trace_file trace_format metrics_file
      prof_file faults explain tuned_file =
    match (Cat.find scale wname, E.paradigm_of_string pname) with
    | Error e, _ | _, Error e ->
      prerr_endline e;
      exit 1
    | Ok w, Ok p -> (
      let open_trace f =
        try open_out f
        with Sys_error e ->
          prerr_endline ("error: cannot open trace file: " ^ e);
          exit 1
      in
      let oc = Option.map open_trace trace_file in
      let trace =
        match oc with
        | Some oc -> Trace.to_channel trace_format oc
        | None -> Trace.null
      in
      let metrics =
        if metrics_file = None then Metrics.null else Metrics.create ()
      in
      let prof = if prof_file = None then Prof.null else Prof.create () in
      let options =
        { E.default_options with functional; trace; metrics; prof; faults }
      in
      (* a tuned decision vector replaces both the paradigm choice and the
         layout/Eq. 2 heuristics (-p is overridden; documented) *)
      let p, options =
        match tuned_file with
        | None -> (p, options)
        | Some f -> (
          match tuned_of_file f w.WL.wname with
          | Error e ->
            prerr_endline ("error: " ^ e);
            exit 1
          | Ok r -> Infs_tune.Tune.apply r options)
      in
      let result = E.run ~options p w in
      Trace.close trace;
      Option.iter close_out oc;
      match result with
      | Error e ->
        prerr_endline ("error: " ^ e);
        exit 1
      | Ok r ->
        print_report r;
        if explain then Format.printf "%a" R.pp_decisions r;
        Option.iter
          (fun f ->
            Format.printf "trace: %d events -> %s@." (Trace.events_seen trace) f)
          trace_file;
        Option.iter
          (fun f ->
            (try Metrics.write_file metrics f
             with Sys_error e ->
               prerr_endline ("error: cannot write metrics file: " ^ e);
               exit 1);
            Format.printf "metrics: %d series -> %s@."
              (List.length (Metrics.snapshot metrics))
              f)
          metrics_file;
        Option.iter (write_prof prof) prof_file;
        (* batch scripts rely on the exit status: a functional mismatch
           against the golden model is a failure, not a report footnote *)
        (match r.R.correctness with
        | `Checked err when err > Spec.functional_tolerance ->
          Printf.eprintf
            "error: functional mismatch: max error %.3e exceeds tolerance %.0e\n"
            err Spec.functional_tolerance;
          exit 1
        | _ -> ()))
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain-decisions" ]
          ~doc:
            "print each kernel's \u{a7}4.3 offload verdict (Eq. 2 core vs. \
             in-memory cycles, chosen target, reason) as a compact table \
             after the report \u{2014} no --trace round-trip needed")
  in
  let tuned_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tuned" ] ~docv:"FILE"
          ~doc:
            "consume a tuned decision vector from an `infs_run tune --out` \
             report: the winner's paradigm (overriding -p), tile override \
             and Eq. 2 policy are applied to this run")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"simulate one workload under one paradigm")
    Term.(
      const run $ scale_arg $ workload_arg $ paradigm_arg $ functional_arg
      $ trace_arg $ trace_format_arg $ metrics_arg $ prof_arg $ faults_arg
      $ explain_arg $ tuned_arg)

let compile_cmd =
  let run scale wname =
    match Cat.find scale wname with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok w -> (
      match Fat_binary.compile w.WL.prog with
      | Error e ->
        prerr_endline ("compile error: " ^ e);
        exit 1
      | Ok fb ->
        Format.printf "%a@." Ast.pp_program fb.Fat_binary.prog;
        List.iter
          (fun (r : Fat_binary.region) ->
            Format.printf "@.--- region %s ---@." r.kernel.Ast.kname;
            Format.printf "%s@." (Sdfg.to_string r.sdfg);
            (match r.fallback with
            | Some reason -> Format.printf "fallback (near-memory only): %s@." reason
            | None ->
              Format.printf "%s@." (Tdfg.to_string r.optimized);
              let st = r.opt_stats in
              Format.printf "e-graph: %d rounds, %d classes / %d nodes, cost %.3g -> %.3g@."
                st.Extract.rounds st.classes st.nodes st.cost_before st.cost_after;
              List.iter
                (fun (wl, (s : Schedule.t)) ->
                  Format.printf "schedule %d wordlines: %d/%d slots@." wl
                    s.slots_used s.capacity)
                r.schedules);
            let h = r.hints in
            Format.printf "hints: shift=%s bc=%s reduce=%s primary=%s@."
              (String.concat "," (List.map string_of_int h.Fat_binary.shift_dims))
              (String.concat "," (List.map string_of_int h.bc_dims))
              (String.concat "," (List.map string_of_int h.reduce_dims))
              (Option.value ~default:"-" h.primary_array))
          fb.regions)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"show the compiled fat binary (tDFGs, schedules, hints)")
    Term.(const run $ scale_arg $ workload_arg)

let lower_cmd =
  let run scale wname kname =
    match Cat.find scale wname with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok w -> (
      match Fat_binary.compile w.WL.prog with
      | Error e ->
        prerr_endline ("compile error: " ^ e);
        exit 1
      | Ok fb -> (
        let region =
          match kname with
          | Some k -> Fat_binary.region_of fb k
          | None -> (
            match fb.Fat_binary.regions with r :: _ -> Some r | [] -> None)
        in
        match region with
        | None ->
          prerr_endline "no such region";
          exit 1
        | Some r -> (
          match (r.fallback, List.assoc_opt 256 r.schedules) with
          | Some f, _ ->
            prerr_endline ("region is near-memory only: " ^ f);
            exit 1
          | None, None ->
            prerr_endline "no 256-wordline schedule";
            exit 1
          | None, Some schedule -> (
            match Interp.create w.WL.prog ~params:w.WL.params with
            | Error e ->
              prerr_endline e;
              exit 1
            | Ok env ->
              (* resolve host-loop variables at their lower bounds for the
                 first invocation's view of the region *)
              let rec lows acc = function
                | Ast.Host_loop (l, body) :: rest ->
                  let v = Symaff.eval l.lo (fun x -> List.assoc x acc) in
                  lows (lows ((l.ivar, v) :: acc) body) rest
                | _ :: rest -> lows acc rest
                | [] -> acc
              in
              let host_lows =
                try lows [] w.WL.prog.Ast.body with Not_found -> []
              in
              let envf v =
                match List.assoc_opt v host_lows with
                | Some x -> x
                | None -> Interp.lookup_int env v
              in
              let g = r.optimized in
              let shape =
                Array.init (Tdfg.lattice_dims g) (fun d ->
                    List.fold_left
                      (fun acc id ->
                        match Tdfg.domain g id with
                        | Tdfg.Finite rect ->
                          max acc (Hyperrect.hi (Symrect.resolve rect envf) d)
                        | Tdfg.Infinite -> acc)
                      1 (Tdfg.live_nodes g))
              in
              let layout =
                match
                  Layout.choose Machine_config.default ~hints:r.hints ~shape
                    ~elems_per_line:16
                with
                | Ok l -> l
                | Error e ->
                  prerr_endline e;
                  exit 1
              in
              Format.printf "layout: %s@." (Layout.to_string layout);
              let cmds, stats =
                Jit.lower Machine_config.default g ~schedule ~layout ~env:envf
              in
              Array.iter (fun c -> print_endline ("  " ^ Command.to_string c)) cmds;
              Format.printf
                "%d commands; jit %.1f us; %g in-memory element-ops; %g stream elems@."
                stats.Jit.commands
                (Machine_config.cycles_to_us Machine_config.default stats.jit_cycles)
                stats.compute_elems
                (stats.stream_load_elems +. stats.stream_store_elems)))))
  in
  let kernel_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "k"; "kernel" ] ~doc:"region (kernel) name; default: first")
  in
  Cmd.v
    (Cmd.info "lower"
       ~doc:"JIT-lower one region and dump the bit-serial command stream")
    Term.(const run $ scale_arg $ workload_arg $ kernel_arg)

(* ---------- batch: the JSON-lines job server ----------

   Reads one JSON job spec per line ({"workload": ..., "paradigm": ...,
   "functional": true, "tile": [4,64], "timeout_s": 5.0, ...}), executes
   the jobs on the multicore pool, and streams exactly one JSON report line
   per job, in submission order. Report lines carry only simulated
   quantities, so `--jobs N` output is byte-identical to `--jobs 1`;
   wall-clock and compile-cache statistics go to stderr. *)

let read_spec_lines ic =
  let rec go acc lineno =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line ->
      let lineno = lineno + 1 in
      let t = String.trim line in
      if t = "" then go acc lineno
      else
        let spec =
          match Json.parse t with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok j -> (
            match Spec.of_json j with
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
            | Ok s -> Ok (Printf.sprintf "line %d" lineno, s))
        in
        go (spec :: acc) lineno
  in
  go [] 0

let batch_cmd =
  let run scale jobs spec_file matrix timeout_s out_file metrics_file
      prof_file meta_commit faults job_retries =
    let specs =
      if matrix then List.map Result.ok (Spec.matrix scale)
      else
        match spec_file with
        | None | Some "-" -> read_spec_lines stdin
        | Some f ->
          let ic =
            try open_in f
            with Sys_error e ->
              prerr_endline ("error: cannot open spec file: " ^ e);
              exit 1
          in
          Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_spec_lines ic)
    in
    let oc =
      match out_file with
      | None -> stdout
      | Some f -> (
        try open_out f
        with Sys_error e ->
          prerr_endline ("error: cannot open output file: " ^ e);
          exit 1)
    in
    let t0 = Unix.gettimeofday () in
    let pool = Pool.create ~jobs () in
    let failures = ref 0 in
    let degraded = ref 0 in
    let meta = match meta_commit with None -> [] | Some c -> [ ("commit", c) ] in
    (* each job profiles into its own registry (single-domain); merging in
       submission order here keeps the aggregate's counts deterministic *)
    let batch_prof = if prof_file = None then Prof.null else Prof.create () in
    let emit id json_fields =
      output_string oc (Json.to_string (Json.Obj (("id", Json.Num (float_of_int id)) :: json_fields)));
      output_char oc '\n';
      flush oc
    in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        let tickets =
          List.map
            (fun spec ->
              match spec with
              | Error e -> `Bad e
              | Ok (_, sp) ->
                let timeout_s =
                  match sp.Spec.timeout_s with Some t -> Some t | None -> timeout_s
                in
                `Job
                  (Pool.submit pool ~retries:job_retries ~backoff_s:0.01
                     ?timeout_s (fun () ->
                       Spec.exec scale
                         ~with_metrics:(metrics_file <> None)
                         ~with_prof:(prof_file <> None) ~faults sp)))
            specs
        in
        List.iteri
          (fun id t ->
            let error e =
              incr failures;
              emit id [ ("ok", Json.Bool false); ("error", Json.Str e) ]
            in
            match t with
            | `Bad e -> error e
            | `Job tk -> (
              match Pool.await tk with
              | Error (Pool.Degraded msg) ->
                (* structured degraded outcome: reported on its own line,
                   counted separately from failures (the job terminated
                   with a diagnosis, not a crash) *)
                incr degraded;
                emit id
                  [
                    ("ok", Json.Bool false);
                    ("degraded", Json.Bool true);
                    ("error", Json.Str msg);
                  ]
              | Error pe -> error (Pool.error_to_string pe)
              | Ok (Error e) -> error e
              | Ok (Ok (r, mj, jprof)) ->
                Prof.merge_into ~dst:batch_prof jprof;
                emit id
                  (("ok", Json.Bool true) :: ("report", R.to_json ~meta r)
                  :: (match mj with
                     | Some j -> [ ("metrics", j) ]
                     | None -> []))))
          tickets);
    if oc != stdout then close_out oc;
    (* pool utilization goes to the side file, never into report lines:
       wall-clock quantities would break the byte-identical-across---jobs
       guarantee. The figures are exact here — shutdown joined the workers. *)
    Option.iter
      (fun f ->
        let m = Metrics.create () in
        Pool.metrics_into pool m;
        try Metrics.write_file m f
        with Sys_error e ->
          prerr_endline ("error: cannot write metrics file: " ^ e);
          exit 1)
      metrics_file;
    (* the pool is shut down here, so its per-worker rows are exact *)
    Option.iter
      (fun f ->
        Pool.profile_into pool batch_prof;
        write_prof batch_prof f)
      prof_file;
    let elapsed = Unix.gettimeofday () -. t0 in
    let hits, misses, entries = E.compile_cache_stats () in
    let total = List.length specs in
    Printf.eprintf
      "batch: %d job%s on %d domain%s in %.2f s; compile cache: %d hits / %d \
       misses (%d entries, %.0f%% hit rate)\n"
      total
      (if total = 1 then "" else "s")
      jobs
      (if jobs = 1 then "" else "s")
      elapsed hits misses entries
      (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
    let hits, misses, evictions = E.plan_store_stats () in
    Printf.eprintf "batch: plan store: %d hits / %d misses, %d evictions\n" hits misses
      evictions;
    if !degraded > 0 then
      Printf.eprintf "batch: %d job%s degraded (structured, not counted as failures)\n"
        !degraded
        (if !degraded = 1 then "" else "s");
    if !failures > 0 then begin
      Printf.eprintf "batch: %d job%s failed\n" !failures
        (if !failures = 1 then "" else "s");
      exit 1
    end
  in
  let spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:"JSON-lines job spec file; \"-\" or omitted reads stdin")
  in
  let matrix_arg =
    Arg.(
      value & flag
      & info [ "matrix" ]
          ~doc:"ignore --spec and run the full catalog x paradigm matrix")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-s" ]
          ~doc:"default per-job wall-clock timeout (seconds); a job's \
                timeout_s field overrides it")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"write report lines to $(docv) instead of stdout")
  in
  let batch_metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "embed a per-job metrics snapshot in every report line \
             (simulated quantities only, so lines stay byte-identical \
             across --jobs) and write pool worker-utilization metrics to \
             $(docv) after shutdown")
  in
  let job_retries_arg =
    Arg.(
      value & opt int 0
      & info [ "job-retries" ] ~docv:"N"
          ~doc:
            "re-run a job that raised an ordinary exception up to $(docv) \
             extra times with exponential backoff; structured degraded \
             outcomes are never retried")
  in
  let meta_commit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "meta-commit" ] ~docv:"HASH"
          ~doc:
            "append a provenance meta block with this commit hash to every \
             report line (supplied by the caller — the tool never reads \
             the clock or the repository itself, so output stays \
             deterministic)")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "execute JSON-lines job specs on a multicore worker pool, \
          streaming one JSON report line per job in submission order")
    Term.(
      const run $ scale_arg $ jobs_arg $ spec_arg $ matrix_arg $ timeout_arg
      $ out_arg $ batch_metrics_arg $ prof_arg $ meta_commit_arg $ faults_arg
      $ job_retries_arg)

(* ---------- tune: autotuning decision search ----------

   Enumerates paradigm x tile x Eq. 2-override candidates per workload,
   scores each with a fast sim run fanned out on the pool, refines
   per-kernel overrides greedily, and emits one deterministic JSON report
   line (schema infs-tune-1) per workload. Winners are memoized in a
   content-addressed cache; --cache persists it across processes. *)

let tune_cmd =
  let run scale wnames all budget jobs out_file cache_file =
    let names =
      if all then Cat.names scale
      else
        match wnames with
        | [] ->
          prerr_endline "error: tune needs -w WORKLOAD (repeatable) or --all";
          exit 1
        | ns -> ns
    in
    (match cache_file with
    | Some f when Sys.file_exists f -> (
      match Infs_tune.Tune.load_cache f with
      | Ok n ->
        Printf.eprintf "tune: loaded %d cached decision%s from %s\n" n
          (if n = 1 then "" else "s")
          f
      | Error e ->
        prerr_endline ("error: cannot load tune cache: " ^ e);
        exit 1)
    | _ -> ());
    let oc =
      match out_file with
      | None -> stdout
      | Some f -> (
        try open_out f
        with Sys_error e ->
          prerr_endline ("error: cannot open output file: " ^ e);
          exit 1)
    in
    let failures = ref 0 in
    List.iter
      (fun name ->
        match Cat.find scale name with
        | Error e ->
          incr failures;
          prerr_endline ("error: " ^ e)
        | Ok _ -> (
          (* each scoring job re-resolves the workload from the catalog so
             jobs never share lazy input state across domains *)
          let resolve () =
            match Cat.find scale name with
            | Ok w -> w
            | Error e -> failwith e
          in
          match Infs_tune.Tune.tune ~budget ~jobs resolve with
          | Error e ->
            incr failures;
            prerr_endline (Printf.sprintf "error: tune %s: %s" name e)
          | Ok r ->
            output_string oc (Json.to_string (Infs_tune.Tune.result_to_json r));
            output_char oc '\n';
            flush oc;
            let w = r.Infs_tune.Tune.winner in
            Printf.eprintf "tune: %-20s %3d explored  gap %.3fx  winner %s%s\n"
              name
              (List.length r.Infs_tune.Tune.explored)
              r.Infs_tune.Tune.gap
              (Json.to_string
                 (Infs_tune.Tune.config_to_json w.Infs_tune.Tune.config))
              (if r.Infs_tune.Tune.from_cache then "  [cached]" else "")))
      names;
    if oc != stdout then close_out oc;
    Option.iter
      (fun f ->
        match Infs_tune.Tune.save_cache f with
        | Ok () -> ()
        | Error e ->
          prerr_endline ("error: cannot write tune cache: " ^ e);
          exit 1)
      cache_file;
    if !failures > 0 then exit 1
  in
  let workloads_arg =
    Arg.(
      value & opt_all string []
      & info [ "w"; "workload" ]
          ~doc:"workload to tune (repeatable; see `infs_run list`)")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"tune every catalog workload (sorted order)")
  in
  let budget_arg =
    Arg.(
      value & opt int Infs_tune.Tune.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:"max scoring runs per workload (candidate enumeration plus \
                per-kernel refinement share the budget)")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"write the JSON tuning report (one infs-tune-1 line per \
                workload) to $(docv) instead of stdout")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:"load the memoized decision cache from $(docv) before tuning \
                (if it exists) and save it back after \u{2014} repeat \
                invocations then explore 0 new candidates")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "search layout x tiling x paradigm x Eq. 2-override configurations \
          per workload on the worker pool, memoize the winning decision \
          vector, and emit a deterministic JSON tuning report consumable by \
          `run --tuned`")
    Term.(
      const run $ scale_arg $ workloads_arg $ all_arg $ budget_arg $ jobs_arg
      $ out_arg $ cache_arg)

(* ---------- serve: persistent request server over the pool ----------

   Same JSON-lines job format as `batch`, but long-lived: clients connect
   to a Unix-domain socket (or loopback TCP), write one spec per line and
   read one response line per request. The process-wide compile cache
   stays warm across requests. `--client` turns the binary into the load
   generator. *)

let serve_cmd =
  let run scale socket client jobs queue_depth timeout_s metrics_file
      trace_file prof_file faults rps duration connections wname pname shards
      tcp_port tenant_quota redispatch_max heartbeat_s target tenant priority
      check =
    if client then begin
      let tgt =
        match (target, socket) with
        | Some tg, _ -> tg
        | None, Some s -> s
        | None, None ->
          prerr_endline "error: client needs --target (or --socket)";
          exit 1
      in
      (* comma-separated workloads cycle round-robin across requests, so
         a shard soak exercises several distinct compile-cache keys *)
      let wnames =
        List.filter (fun s -> s <> "") (String.split_on_char ',' wname)
      in
      let wnames = if wnames = [] then [ "vec_add" ] else wnames in
      let mk w =
        Json.to_string
          (Json.Obj
             ([ ("workload", Json.Str w); ("paradigm", Json.Str pname) ]
             @ (match timeout_s with
               | Some ts -> [ ("timeout_s", Json.Num ts) ]
               | None -> [])
             @ (match tenant with
               | Some tn -> [ ("tenant", Json.Str tn) ]
               | None -> [])
             @
             match priority with
             | Some p -> [ ("priority", Json.Str p) ]
             | None -> []))
      in
      let lines = Array.of_list (List.map mk wnames) in
      let body i = lines.(i mod Array.length lines) in
      match
        Serve_client.run ~socket:tgt ~rps ~duration_s:duration ~connections
          ~collect_reports:(if check then Array.length lines else 0)
          ~body ()
      with
      | Error e ->
        prerr_endline ("error: " ^ e);
        exit 1
      | Ok r ->
        let answered = Serve_client.answered r in
        Printf.printf
          "sent %d  answered %d  ok %d  overloaded %d  timeout %d  error %d  \
           degraded %d  cancelled %d  unanswered %d\n"
          r.Serve_client.sent answered r.ok r.overloaded r.timeout r.error
          r.degraded r.cancelled r.unanswered;
        Printf.printf "throughput: %.1f answered/s over %.2f s wall\n"
          (float_of_int answered /. Float.max 1e-9 r.wall_s)
          r.wall_s;
        if r.ok_latency_us <> [] then begin
          let q p = Stats.quantile p r.ok_latency_us /. 1e3 in
          Printf.printf
            "ok latency: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms\n"
            (q 0.5) (q 0.95) (q 0.99) (q 1.0)
        end;
        (* --check: every served report must be byte-identical to a
           direct (in-process) run of the same spec *)
        if check then begin
          let failed = ref false in
          if List.length r.ok_reports < Array.length lines then begin
            Printf.eprintf
              "check: only %d of %d distinct specs got an ok response\n"
              (List.length r.ok_reports) (Array.length lines);
            failed := true
          end;
          List.iter
            (fun (body_line, served) ->
              let direct =
                match Json.parse body_line with
                | Error e -> Error ("parse: " ^ e)
                | Ok j -> Result.map Json.to_string (Spec.handler scale ~faults j)
              in
              match direct with
              | Error e ->
                Printf.eprintf "check: direct run failed for %s: %s\n"
                  body_line e;
                failed := true
              | Ok want ->
                if want <> served then begin
                  Printf.eprintf
                    "check: served report differs from direct run for %s\n"
                    body_line;
                  failed := true
                end)
            r.ok_reports;
          let digest =
            Digest.to_hex
              (Digest.string
                 (String.concat "\n"
                    (List.sort compare (List.map snd r.ok_reports))))
          in
          Printf.printf "check: %s (%d distinct specs, %s)\n" digest
            (List.length r.ok_reports)
            (if !failed then "MISMATCH" else "byte-identical to direct runs");
          if !failed then exit 1
        end;
        if r.error > 0 || r.cancelled > 0 || answered < r.sent then exit 1
    end
    else begin
      let socket =
        match socket with
        | Some s -> s
        | None ->
          prerr_endline "error: serve needs --socket";
          exit 1
      in
      let toc =
        Option.map
          (fun f ->
            try open_out f
            with Sys_error e ->
              prerr_endline ("error: cannot open trace file: " ^ e);
              exit 1)
          trace_file
      in
      let trace =
        match toc with
        | Some oc -> Trace.to_channel Trace.Jsonl oc
        | None -> Trace.null
      in
      let cfg =
        {
          (Serve.default_config ~socket_path:socket) with
          tcp_port;
          queue_depth;
          tenant_quota;
          default_timeout_s = timeout_s;
          metrics_path = metrics_file;
          trace;
          prof = (if prof_file = None then Prof.null else Prof.create ());
          (* a front's shards write F.shard<i>; the front itself F.front *)
          prof_path =
            (if shards > 0 then Option.map (fun f -> f ^ ".front") prof_file
             else prof_file);
        }
      in
      let or_exit = function
        | Ok v -> v
        | Error e ->
          prerr_endline ("error: " ^ e);
          exit 1
      in
      (* graceful drain on SIGTERM/SIGINT: request_stop only sets a flag,
         so it is safe inside the handler *)
      let on_signals request_stop =
        List.iter
          (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> request_stop ())))
          [ Sys.sigterm; Sys.sigint ]
      in
      let listening what =
        Printf.eprintf "serve: %slistening on %s%s (%s, queue depth %d)\n%!"
          (if shards > 0 then "front " else "")
          socket
          (match tcp_port with
          | Some p -> Printf.sprintf " and tcp:127.0.0.1:%d" p
          | None -> "")
          what cfg.Serve.queue_depth
      in
      let close_trace () =
        Trace.close trace;
        Option.iter close_out toc
      in
      if shards > 0 then begin
        (* sharded front tier: N child serve processes, each with its own
           pool and warm compile cache, behind a consistent-hash router *)
        let scale_s = match scale with `Paper -> "paper" | `Test -> "test" in
        let argv_of i sock =
          Array.of_list
            ([
               Sys.executable_name; "serve"; "--socket"; sock; "--queue-depth";
               string_of_int queue_depth; "--scale"; scale_s;
             ]
            @ [ "--jobs"; string_of_int jobs ]
            @ (match timeout_s with
              | Some ts -> [ "--timeout-s"; Printf.sprintf "%g" ts ]
              | None -> [])
            @ (if Fault.is_none faults then []
               else [ "--faults"; Fault.to_string faults ])
            @ (match metrics_file with
              | Some f -> [ "--metrics"; Printf.sprintf "%s.shard%d" f i ]
              | None -> [])
            @
            match prof_file with
            | Some f -> [ "--prof"; Printf.sprintf "%s.shard%d" f i ]
            | None -> [])
        in
        let t =
          or_exit (Shard.start cfg ~shards ~redispatch_max ?heartbeat_s (Shard.Proc argv_of))
        in
        on_signals (fun () -> Shard.request_stop t);
        (* pid lines let a soak harness kill a specific shard mid-run *)
        List.iteri
          (fun i pid ->
            Option.iter (Printf.eprintf "serve: shard %d pid %d\n%!" i) pid)
          (Shard.shard_pids t);
        listening (Printf.sprintf "%d shards" shards);
        let st = Shard.wait t in
        close_trace ();
        Printf.eprintf
          "serve: front drained: %d connection%s, %d received, %d admitted, \
           %d answered, %d shed (%d depth, %d quota, %d priority), %d bad, \
           routes %d hot / %d cold / %d moved, %d redispatched, %d lost, %d \
           crash%s, %d respawn%s, %d drained\n%!"
          st.Shard.connections
          (if st.Shard.connections = 1 then "" else "s")
          st.Shard.received st.Shard.admitted st.Shard.answered
          (Shard.shed_total st) st.Shard.shed st.Shard.shed_quota
          st.Shard.shed_priority st.Shard.bad st.Shard.route_hot
          st.Shard.route_cold st.Shard.route_moved st.Shard.redispatched
          st.Shard.lost st.Shard.crashes
          (if st.Shard.crashes = 1 then "" else "es")
          st.Shard.respawns
          (if st.Shard.respawns = 1 then "" else "s")
          st.Shard.drained;
        (* a clean drain answers every admitted request, none of them
           via the re-dispatch-exhausted error path *)
        if st.Shard.lost > 0 || st.Shard.answered <> st.Shard.admitted then begin
          prerr_endline
            "serve: error: front drain lost or left admitted requests \
             unanswered";
          exit 1
        end
      end
      else begin
        let t = or_exit (Serve.start cfg (Serve.local ~jobs (Spec.handler scale ~faults))) in
        on_signals (fun () -> Serve.request_stop t);
        listening (Printf.sprintf "%d worker%s" jobs (if jobs = 1 then "" else "s"));
        let st = Serve.wait t in
        close_trace ();
        Printf.eprintf
          "serve: drained: %d connection%s, %d received, %d admitted (%d ok, \
           %d failed, %d timeout, %d degraded, %d cancelled), %d shed, %d \
           bad, %d answered during drain\n%!"
          st.Serve.connections
          (if st.Serve.connections = 1 then "" else "s")
          st.received st.admitted st.ok st.failed st.deadline_exceeded
          st.degraded st.cancelled
          (st.shed + st.shed_quota + st.shed_priority)
          st.bad st.drained;
        (* a graceful drain answers every admitted request and cancels none *)
        if st.cancelled > 0 || Serve.answered st <> st.admitted then begin
          prerr_endline "serve: error: drain left admitted requests unanswered";
          exit 1
        end
      end
    end
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Unix-domain socket path (server: required; client: used when \
             --target is absent)")
  in
  let shards_arg =
    Arg.(
      value & opt int 0
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "server: run a sharded front tier over $(docv) child serve \
             processes (consistent-hash routing by compile-cache key, \
             crash re-dispatch, respawn); 0 serves directly in-process")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"server: additionally listen on loopback TCP port $(docv)")
  in
  let tenant_quota_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tenant-quota" ] ~docv:"N"
          ~doc:
            "server: max concurrent in-flight requests per distinct tenant \
             field; beyond it requests are shed as overloaded")
  in
  let redispatch_arg =
    Arg.(
      value & opt int 2
      & info [ "redispatch-max" ] ~docv:"N"
          ~doc:
            "front tier: re-dispatch budget per request when its shard \
             crashes; exhaustion answers a structured error")
  in
  let heartbeat_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "heartbeat-s" ] ~docv:"S"
          ~doc:
            "front tier: ping each shard every $(docv) seconds and declare \
             it dead after 3 missed pongs (crashes are detected by EOF \
             even without heartbeats)")
  in
  let target_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "target" ] ~docv:"TARGET"
          ~doc:
            "client: unix:PATH, tcp:HOST:PORT, or a bare socket path; \
             overrides --socket")
  in
  let tenant_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"client: tenant field to stamp on every request")
  in
  let priority_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "priority" ] ~docv:"CLASS"
          ~doc:
            "client: priority field to stamp on every request (low is shed \
             first under load)")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "client: verify every served report is byte-identical to a \
             direct in-process run of the same spec and print a digest of \
             the distinct reports")
  in
  let client_arg =
    Arg.(
      value & flag
      & info [ "client" ]
          ~doc:"run the load generator against --socket instead of serving")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "admission bound: requests beyond $(docv) outstanding are shed \
             with a structured overloaded response")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout-s" ]
          ~doc:
            "server: default per-request deadline (a request's timeout_s \
             field overrides it); client: timeout_s field to send")
  in
  let serve_metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "flush a final metrics snapshot (request counters, queue-depth \
             gauge, latency histogram, pool utilization) to $(docv) on drain")
  in
  let rps_arg =
    Arg.(
      value & opt float 20.0
      & info [ "rps" ] ~docv:"N" ~doc:"client: requests per second to pace")
  in
  let duration_arg =
    Arg.(
      value & opt float 5.0
      & info [ "duration" ] ~docv:"S" ~doc:"client: seconds to send for")
  in
  let connections_arg =
    Arg.(
      value & opt int 1
      & info [ "connections" ] ~docv:"N"
          ~doc:"client: concurrent connections to spread the load over")
  in
  let serve_workload_arg =
    Arg.(
      value & opt string "vec_add"
      & info [ "w"; "workload" ]
          ~doc:
            "client: workload(s) to request; a comma-separated list cycles \
             round-robin across requests")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "serve the JSON-lines job format persistently over a Unix-domain \
          socket and optionally loopback TCP (bounded admission with \
          per-tenant quotas and priority shedding, per-request deadlines, \
          graceful drain on SIGTERM), optionally as a sharded front tier \
          (--shards N) with cache-affine consistent-hash routing and crash \
          re-dispatch; --client runs a pacing load generator and reports \
          p50/p95/p99 latency")
    Term.(
      const run $ scale_arg $ socket_arg $ client_arg $ jobs_arg $ queue_arg
      $ timeout_arg $ serve_metrics_arg $ trace_arg $ prof_arg $ faults_arg
      $ rps_arg $ duration_arg $ connections_arg $ serve_workload_arg
      $ paradigm_arg $ shards_arg $ tcp_arg $ tenant_quota_arg
      $ redispatch_arg $ heartbeat_arg $ target_arg $ tenant_arg
      $ priority_arg $ check_arg)

(* ---------- analyze: offline trace -> bottleneck report ---------- *)

let analyze_cmd =
  let run file top out_file =
    let ic =
      if file = "-" then stdin
      else
        try open_in file
        with Sys_error e ->
          prerr_endline ("error: cannot open trace file: " ^ e);
          exit 1
    in
    let cfg = Machine_config.default in
    let t =
      Trace_replay.create ~mesh_x:cfg.Machine_config.mesh_x ~mesh_y:cfg.mesh_y
        ~banks:cfg.l3_banks ~channels:cfg.mem_ctrls ()
    in
    let fed = Trace_replay.feed_channel t ic in
    if ic != stdin then close_in ic;
    match fed with
    | Error e ->
      prerr_endline ("error: " ^ file ^ ": " ^ e);
      exit 1
    | Ok _ -> (
      let report = Trace_replay.report ~top t in
      match out_file with
      | None -> print_string report
      | Some f -> (
        try
          let oc = open_out f in
          output_string oc report;
          close_out oc
        with Sys_error e ->
          prerr_endline ("error: cannot open output file: " ^ e);
          exit 1))
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL trace produced by `infs_run run --trace`; \"-\" reads \
                stdin")
  in
  let top_arg =
    Arg.(
      value & opt int 8
      & info [ "top" ] ~docv:"N"
          ~doc:"entries per hottest-links / busiest-banks section")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"write the report to $(docv) instead of stdout")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "replay a JSONL trace into the metrics registry and print a \
          deterministic bottleneck report (cycle breakdown, NoC link \
          heatmap, SRAM bank occupancy, DRAM/JIT summaries, per-region \
          critical categories)")
    Term.(const run $ file_arg $ top_arg $ out_arg)

(* ---------- bench-diff: the regression gate ---------- *)

let read_whole_file f =
  match
    let ic = open_in f in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error ("cannot open " ^ f ^ ": " ^ e)
  | s -> Ok s

let load_bench_file f =
  Result.bind (read_whole_file f) (fun s ->
      match Bench_file.of_string s with
      | Error e -> Error (f ^ ": " ^ e)
      | Ok b -> Ok b)

let bench_diff_cmd =
  let pct_conv =
    let parse s =
      let s = String.trim s in
      let n = String.length s in
      let s = if n > 0 && s.[n - 1] = '%' then String.sub s 0 (n - 1) else s in
      match float_of_string_opt s with
      | Some f when f >= 0.0 -> Ok f
      | _ -> Error (`Msg "expected a percentage, e.g. 5 or 5%")
    in
    Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%g%%" f)
  in
  let run old_f new_f warn max_regress json_file =
    match (load_bench_file old_f, load_bench_file new_f) with
    | Error e, _ | _, Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
    | Ok old_, Ok new_ ->
      let d = Bench_diff.diff ~warn ~max_regress ~old_ ~new_ in
      print_string (Bench_diff.to_text d);
      Option.iter
        (fun f ->
          try
            let oc = open_out f in
            output_string oc (Json.to_string (Bench_diff.to_json d));
            output_char oc '\n';
            close_out oc
          with Sys_error e ->
            prerr_endline ("error: cannot write json diff: " ^ e);
            exit 1)
        json_file;
      if Bench_diff.failed d then exit 1
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"baseline infs-bench-1 JSON (bench --json)")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"candidate infs-bench-1 JSON")
  in
  let warn_arg =
    Arg.(
      value & opt pct_conv 5.0
      & info [ "warn" ] ~docv:"PCT"
          ~doc:"print a warning for any entry slower by more than $(docv)")
  in
  let max_arg =
    Arg.(
      value & opt pct_conv 25.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "exit non-zero if any entry moved by more than $(docv) in either \
             direction, or is missing from NEW")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "also write the diff as machine-readable JSON (schema \
             infs-bench-diff-1: per-entry status/old/new/delta plus the \
             summary counts) to $(docv) — what the CI gate archives")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "compare two bench --json result files per (workload, paradigm) \
          and fail on any cycle count that moved beyond the threshold in \
          either direction, or that NEW lacks")
    Term.(const run $ old_arg $ new_arg $ warn_arg $ max_arg $ json_arg)

(* ---------- trend: per-commit snapshots -> sparkline page ---------- *)

let trend_cmd =
  let run dir out_md out_html threshold =
    let files =
      match Sys.readdir dir with
      | exception Sys_error e ->
        prerr_endline ("error: cannot read snapshot directory: " ^ e);
        exit 1
      | fs ->
        Array.to_list fs
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.sort String.compare
    in
    if files = [] then begin
      prerr_endline ("error: no .json snapshots in " ^ dir);
      exit 1
    end;
    let snaps =
      List.map
        (fun f ->
          match load_bench_file (Filename.concat dir f) with
          | Error e ->
            prerr_endline ("error: " ^ e);
            exit 1
          | Ok b -> (f, b))
        files
    in
    (* chronological order: meta.timestamp when every snapshot carries one
       (lexicographic — timestamps are ISO-8601), else filename *)
    let snaps =
      if List.for_all (fun (_, b) -> Bench_file.timestamp b <> None) snaps then
        List.stable_sort
          (fun (_, a) (_, b) ->
            compare (Bench_file.timestamp a) (Bench_file.timestamp b))
          snaps
      else snaps
    in
    let labeled =
      List.map
        (fun (f, b) ->
          ( (match Bench_file.commit b with
            | Some c -> (if String.length c > 12 then String.sub c 0 12 else c)
            | None -> Filename.remove_extension f),
            b ))
        snaps
    in
    let t = Trend.build ~threshold labeled in
    let write f s =
      try
        let oc = open_out f in
        output_string oc s;
        close_out oc
      with Sys_error e ->
        prerr_endline ("error: cannot write trend page: " ^ e);
        exit 1
    in
    (match out_md with None -> print_string (Trend.to_markdown t) | Some f -> write f (Trend.to_markdown t));
    Option.iter (fun f -> write f (Trend.to_html t)) out_html;
    let regs = Trend.regressions t in
    List.iter
      (fun (key, d) ->
        Printf.eprintf "trend: REGRESSION %s %+.2f%% (last vs previous)\n" key d)
      regs
  in
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR"
          ~doc:
            "directory of per-commit infs-bench-1 snapshots (*.json, e.g. \
             archived bench --json dumps); ordered by meta.timestamp when \
             every file has one, else by filename")
  in
  let md_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"write the markdown trend page to $(docv) instead of stdout")
  in
  let html_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:"also write a standalone HTML trend page to $(docv)")
  in
  let threshold_arg =
    Arg.(
      value & opt float 5.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"flag a key whose last snapshot moved beyond $(docv)% \
                against the previous one")
  in
  Cmd.v
    (Cmd.info "trend"
       ~doc:
         "render a directory of per-commit bench --json snapshots as a \
          markdown (and optionally HTML) trend page: per-workload \
          sparkline tables of cycles per paradigm, with last-vs-previous \
          regression flags")
    Term.(const run $ dir_arg $ md_arg $ html_arg $ threshold_arg)

(* ---------- bench-bisect: minimize a bench regression ---------- *)

let bench_bisect_cmd =
  let run old_f new_f threshold json =
    match (load_bench_file old_f, load_bench_file new_f) with
    | Error e, _ | _, Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
    | Ok old_, Ok new_ ->
      let r = Bisect.minimize ~threshold ~old_ ~new_ () in
      if json then
        print_endline (Json.to_string (Bisect.to_json ~threshold r))
      else print_string (Bisect.to_text ~threshold r)
  in
  let old_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"baseline infs-bench-1 JSON (bench --json)")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"candidate infs-bench-1 JSON")
  in
  let threshold_arg =
    Arg.(
      value & opt float 2.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"only cells whose cycle count moved by more than $(docv)% \
                count as moved")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"emit the infs-bisect-1 JSON summary instead of text")
  in
  Cmd.v
    (Cmd.info "bench-bisect"
       ~doc:
         "minimize the difference between two bench --json files to the \
          smallest set of (workload, paradigm) groups that moved beyond \
          the threshold, ranked by cycle impact — a whole-matrix shift \
          collapses to one root entry, a whole-workload or whole-paradigm \
          shift to one row each")
    Term.(const run $ old_arg $ new_arg $ threshold_arg $ json_arg)

(* ---------- identity-golden: regenerate the byte-identity tier ---------- *)

let identity_golden_cmd =
  let run dir =
    (try
       if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
     with Unix.Unix_error (e, _, _) ->
       prerr_endline ("error: cannot create " ^ dir ^ ": " ^ Unix.error_message e);
       exit 1);
    let paths = Infs_workloads.Identity.write_dir dir in
    List.iter (fun p -> Printf.printf "wrote %s\n" p) paths;
    Printf.printf "%d identity golden files\n" (List.length paths)
  in
  let dir_arg =
    Arg.(
      value
      & opt string "test/golden/identity"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"directory to write <entry>.json files into")
  in
  Cmd.v
    (Cmd.info "identity-golden"
       ~doc:
         "regenerate the byte-identity golden tier: the full test-scale \
          catalog x all paradigms rendered as report JSON + metrics \
          snapshot + normalized profile, one file per catalog entry \
          (test/test_identity.ml byte-compares against these; only \
          regenerate for an intentional cost-model change)")
    Term.(const run $ dir_arg)

let () =
  let doc = "infinity stream - in-/near-memory fusion simulator" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "infs_run" ~doc)
          [
            list_cmd; run_cmd; compile_cmd; lower_cmd; batch_cmd; tune_cmd;
            serve_cmd; analyze_cmd; bench_diff_cmd; trend_cmd;
            bench_bisect_cmd; identity_golden_cmd;
          ]))
