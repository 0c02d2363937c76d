(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§8) on the simulated machine, plus Bechamel micro-benchmarks
   of the framework's own hot paths (JIT lowering, e-graph saturation,
   tensor decomposition).

   Absolute cycle counts come from this repository's architectural
   simulator, not gem5 — EXPERIMENTS.md records the paper-vs-measured
   comparison; the shapes (who wins, by roughly what factor, where the
   crossovers fall) are the reproduction target. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module WL = Infinity_stream.Workload
module Cat = Infs_workloads.Catalog

let cfg = Machine_config.default

(* ---- report cache: each (workload, paradigm, options-tag) simulated once

   Mutex-guarded: the prewarm phase fills it from the worker pool's
   domains, the figure code then reads it sequentially. Two domains racing
   on the same key both simulate — the engine is deterministic, so either
   result is the result. *)

let cache : (string, R.t) Hashtbl.t = Hashtbl.create 64
let cache_mu = Mutex.create ()

(* The suite runs warm: the paper assumes working sets are resident in the
   L3 ("input data already tiled to fit", §6); in-memory configurations
   still pay layout transposition. Compiled fat binaries are shared across
   runs through the engine's process-wide compile cache. *)
let suite_options = { E.default_options with warm_data = true; share_compile = true }

let run ?(tag = "") ?(options = suite_options) p (w : WL.t) =
  let key = Printf.sprintf "%s|%s|%s" w.wname (E.paradigm_to_string p) tag in
  match Mutex.protect cache_mu (fun () -> Hashtbl.find_opt cache key) with
  | Some r -> r
  | None ->
    let r = E.run_exn ~options p w in
    Mutex.protect cache_mu (fun () -> Hashtbl.replace cache key r);
    r

let paradigms_fig11 = [ E.Base; E.Near_l3; E.In_l3; E.Inf_s; E.Inf_s_nojit ]

(* ---- multicore prewarm (--jobs N): simulate the suite's (workload,
   paradigm) grid on the pool before the figure code reads it back out of
   the cache; results are identical to sequential runs (the engine is
   deterministic and per-run isolated), only the wall-clock changes. *)

let bench_jobs = ref 1

let prewarm ?(fig2 = false) entries =
  let grid =
    List.concat_map
      (fun (_, w) ->
        List.map (fun p -> ("", suite_options, p, w)) paradigms_fig11)
      (Cat.all_variants entries)
  in
  let fig2_grid =
    if not fig2 then []
    else
      let options =
        {
          E.default_options with
          warm_data = true;
          pre_transposed = true;
          charge_jit = false;
          share_compile = true;
        }
      in
      List.concat_map
        (fun mk ->
          List.concat_map
            (fun size ->
              List.map
                (fun p -> ("warm", options, p, mk size))
                [ E.Base_1; E.Base; E.Near_l3; E.In_l3 ])
            Infs_workloads.Micro.fig2_sizes)
        [
          (fun n -> Infs_workloads.Micro.vec_add ~n);
          (fun n -> Infs_workloads.Micro.array_sum ~n);
        ]
  in
  let specs = grid @ fig2_grid in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Pool.run_list ~jobs:!bench_jobs
      (List.map (fun (tag, options, p, w) -> fun () -> ignore (run ~tag ~options p w)) specs)
  in
  List.iter
    (function Ok () -> () | Error e -> failwith ("prewarm: " ^ Pool.error_to_string e))
    outcomes;
  let hits, misses, _ = E.compile_cache_stats () in
  Printf.printf
    "prewarm: %d runs on %d domain%s in %.2f s (compile cache: %d hits / %d misses)\n\n"
    (List.length specs) !bench_jobs
    (if !bench_jobs = 1 then "" else "s")
    (Unix.gettimeofday () -. t0)
    hits misses

(* best dataflow variant per paradigm, as the paper does for Fig. 11/12 *)
let best_variant p (e : Cat.entry) =
  List.fold_left
    (fun (bw, bc) (_, w) ->
      let c = (run p w).R.cycles in
      match bw with
      | Some _ when c >= bc -> (bw, bc)
      | _ -> (Some w, c))
    (None, infinity) e.variants
  |> fun (w, _) -> Option.get w

(* ---------- header: Table 2 + Eq. 1 ---------- *)

let print_header () =
  let t = Table.create ~title:"Table 2 - system parameters (simulated)" ~columns:[ "parameter"; "value" ] in
  Table.add_row t [ "cores / mesh"; Printf.sprintf "%d (%dx%d)" cfg.cores cfg.mesh_x cfg.mesh_y ];
  Table.add_row t [ "L3 banks x ways x arrays"; Printf.sprintf "%dx%dx%d" cfg.l3_banks cfg.l3_ways cfg.arrays_per_way ];
  Table.add_row t [ "SRAM array"; Printf.sprintf "%dx%d (8kB)" cfg.sram_wordlines cfg.sram_bitlines ];
  Table.add_row t
    [ "total L3"; Printf.sprintf "%d MB"
        (cfg.l3_banks * cfg.l3_ways * cfg.arrays_per_way * 8192 / 1024 / 1024) ];
  Table.add_row t [ "compute bitlines"; string_of_int (Machine_config.total_bitlines cfg) ];
  Table.add_row t [ "DRAM"; Printf.sprintf "%.1f GB/s" cfg.dram_gbps ];
  Table.print t;
  let t = Table.create ~title:"Eq. 1 - peak in-memory throughput" ~columns:[ "metric"; "value" ] in
  let peak = Machine_config.peak_imc_ops_per_cycle cfg ~dtype:Dtype.Int32 ~op:Op.Add in
  Table.add_row t [ "int32 add ops/cycle"; Table.fmt_float peak ];
  Table.add_row t [ "SIMD baseline ops/cycle"; Table.fmt_float (Machine_config.peak_simd_flops_per_cycle cfg) ];
  Table.add_row t [ "peak ratio"; Table.fmt_float (peak /. Machine_config.peak_simd_flops_per_cycle cfg) ];
  Table.print t

(* ---------- Fig. 2: paradigm speedups on microbenchmarks ---------- *)

let fig2 () =
  (* data resident in L3 and pre-transposed, JIT precompiled (Fig. 2's
     stated assumptions) *)
  let options =
    {
      E.default_options with
      warm_data = true;
      pre_transposed = true;
      charge_jit = false;
      share_compile = true;
    }
  in
  let t =
    Table.create ~title:"Fig 2 - paradigm speedup over Base-Thread-1 (fp32, warm)"
      ~columns:[ "benchmark"; "Base-Thread-1"; "Base-Thread-64"; "Near-L3"; "In-L3" ]
  in
  List.iter
    (fun (mk, name) ->
      List.iter
        (fun size ->
          let w = mk size in
          let base1 = run ~tag:"warm" ~options E.Base_1 w in
          let s p = R.speedup ~baseline:base1 (run ~tag:"warm" ~options p w) in
          let row = [ s E.Base_1; s E.Base; s E.Near_l3; s E.In_l3 ] in
          ignore
            (Table.add_float_row t
               (Printf.sprintf "%s/%dk" name (size / 1024))
               row))
        Infs_workloads.Micro.fig2_sizes)
    [ ((fun n -> Infs_workloads.Micro.vec_add ~n), "vec_add");
      ((fun n -> Infs_workloads.Micro.array_sum ~n), "array_sum") ];
  Table.print t

(* ---------- Fig. 11 / 12 / 13 / 14 / 18: the main suite ---------- *)

let fig11 entries =
  let t =
    Table.create ~title:"Fig 11 - overall speedup over Base (best dataflow per config)"
      ~columns:("workload" :: List.map E.paradigm_to_string paradigms_fig11)
  in
  let per_paradigm = Hashtbl.create 8 in
  List.iter
    (fun (e : Cat.entry) ->
      let base_w = best_variant E.Base e in
      let base = run E.Base base_w in
      let row =
        List.map
          (fun p ->
            let w = best_variant p e in
            let s = R.speedup ~baseline:base (run p w) in
            Hashtbl.replace per_paradigm p
              (s :: Option.value ~default:[] (Hashtbl.find_opt per_paradigm p));
            s)
          paradigms_fig11
      in
      ignore (Table.add_float_row t e.label row))
    entries;
  let geo =
    List.map
      (fun p -> Stats.geomean (Option.value ~default:[] (Hashtbl.find_opt per_paradigm p)))
      paradigms_fig11
  in
  ignore (Table.add_float_row t "geomean" geo);
  Table.print t

let fig12 entries =
  let t =
    Table.create
      ~title:"Fig 12 - NoC byte-hops (normalized to Base) and utilization"
      ~columns:[ "workload"; "config"; "control"; "data"; "offload"; "total"; "util" ]
  in
  List.iter
    (fun (e : Cat.entry) ->
      let base = run E.Base (best_variant E.Base e) in
      let base_total = List.fold_left (fun a (_, v) -> a +. v) 0.0 base.R.noc_byte_hops in
      List.iter
        (fun p ->
          let r = run p (best_variant p e) in
          let g k = List.assoc k r.R.noc_byte_hops /. Float.max 1.0 base_total in
          Table.add_row t
            [
              e.label;
              r.paradigm;
              Table.fmt_float (g "control");
              Table.fmt_float (g "data" +. g "inter-tile");
              Table.fmt_float (g "offload");
              Table.fmt_float (g "control" +. g "data" +. g "inter-tile" +. g "offload");
              Table.fmt_float r.noc_utilization;
            ])
        [ E.Base; E.Near_l3; E.Inf_s ])
    entries;
  Table.print t

let fig13 entries =
  let t =
    Table.create ~title:"Fig 13 - Inf-S data movement breakdown (byte fractions)"
      ~columns:
        [ "workload"; "intra-tile"; "htree"; "noc-inter-tile"; "noc-data"; "noc-offload"; "noc-control" ]
  in
  List.iter
    (fun (label, w) ->
      let r = run E.Inf_s w in
      let local k = List.assoc k r.R.local_bytes in
      let noc k = List.assoc k r.R.noc_bytes in
      let total =
        local "intra-tile" +. local "htree" +. noc "inter-tile" +. noc "data"
        +. noc "offload" +. noc "control"
      in
      let f x = x /. Float.max 1.0 total in
      ignore
        (Table.add_float_row t label
           [
             f (local "intra-tile"); f (local "htree"); f (noc "inter-tile");
             f (noc "data"); f (noc "offload"); f (noc "control");
           ]))
    (Cat.all_variants entries);
  Table.print t

let fig14 entries =
  let t =
    Table.create ~title:"Fig 14 - Inf-S cycle breakdown (fractions) + in-mem op %"
      ~columns:
        [ "workload"; "DRAM"; "JIT"; "Move"; "Compute"; "FinalRed"; "Mix"; "NearMem"; "Core"; "inmem%" ]
  in
  let sums = Array.make 8 0.0 and count = ref 0 in
  List.iter
    (fun (label, w) ->
      let r = run E.Inf_s w in
      let total = Float.max 1.0 r.R.cycles in
      let fracs =
        List.map (fun (_, v) -> v /. total) (Breakdown.to_assoc r.R.breakdown)
      in
      List.iteri (fun i v -> sums.(i) <- sums.(i) +. v) fracs;
      incr count;
      ignore
        (Table.add_float_row t label (fracs @ [ 100.0 *. r.in_mem_op_fraction ])))
    (Cat.all_variants entries);
  ignore
    (Table.add_float_row t "avg"
       (Array.to_list (Array.map (fun s -> s /. float_of_int (max 1 !count)) sums)));
  Table.print t

let fig18 entries =
  let t =
    Table.create ~title:"Fig 18 - energy efficiency over Base (higher is better)"
      ~columns:[ "workload"; "Base"; "Near-L3"; "In-L3"; "Inf-S"; "Inf-S-noJIT" ]
  in
  let per = Hashtbl.create 8 in
  List.iter
    (fun (e : Cat.entry) ->
      let base = run E.Base (best_variant E.Base e) in
      let row =
        List.map
          (fun p ->
            let r = run p (best_variant p e) in
            let eff = R.energy_efficiency ~baseline:base r in
            Hashtbl.replace per p (eff :: Option.value ~default:[] (Hashtbl.find_opt per p));
            eff)
          paradigms_fig11
      in
      ignore (Table.add_float_row t e.label row))
    entries;
  ignore
    (Table.add_float_row t "geomean"
       (List.map
          (fun p -> Stats.geomean (Option.value ~default:[] (Hashtbl.find_opt per p)))
          paradigms_fig11));
  Table.print t

(* ---------- Fig. 15: dataflow choices ---------- *)

let fig15 () =
  let t =
    Table.create ~title:"Fig 15 - inner vs outer product (speedup over Base w/ inner)"
      ~columns:[ "workload"; "Base-In"; "Base-Out"; "Near-In"; "Near-Out"; "InfS-In"; "InfS-Out" ]
  in
  List.iter
    (fun (e : Cat.entry) ->
      match (List.assoc_opt "in" e.variants, List.assoc_opt "out" e.variants) with
      | Some w_in, Some w_out ->
        let base = run E.Base w_in in
        let s p w = R.speedup ~baseline:base (run p w) in
        ignore
          (Table.add_float_row t e.label
             [
               s E.Base w_in; s E.Base w_out;
               s E.Near_l3 w_in; s E.Near_l3 w_out;
               s E.Inf_s w_in; s E.Inf_s w_out;
             ])
      | _ -> ())
    (List.filter (fun (e : Cat.entry) -> List.length e.variants = 2) (Cat.table3 ()));
  Table.print t

(* ---------- Fig. 16 / 17: tile-size sweeps ---------- *)

let sweep_2d () =
  let tiles =
    [ [| 1; 256 |]; [| 2; 128 |]; [| 4; 64 |]; [| 8; 32 |]; [| 16; 16 |];
      [| 32; 8 |]; [| 64; 4 |]; [| 128; 2 |]; [| 256; 1 |] ]
  in
  let t =
    Table.create
      ~title:"Fig 16 - Inf-S cycles vs 2D tile size (normalized to heuristic pick)"
      ~columns:
        (("workload"
         :: List.map (fun tl -> Printf.sprintf "%dx%d" tl.(0) tl.(1)) tiles)
        @ [ "best"; "heur/oracle" ])
  in
  let ratios = ref [] in
  List.iter
    (fun (label, w) ->
      let heuristic = (run E.Inf_s w).R.cycles in
      let cells =
        List.map
          (fun tile ->
            let options = { suite_options with E.tile_override = Some tile } in
            (run ~tag:(Printf.sprintf "t%dx%d" tile.(0) tile.(1)) ~options E.Inf_s w)
              .R.cycles)
          tiles
      in
      let best = List.fold_left Float.min heuristic cells in
      let best_name =
        let rec find ts cs =
          match (ts, cs) with
          | tl :: _, c :: _ when c = best -> Printf.sprintf "%dx%d" tl.(0) tl.(1)
          | _ :: ts, _ :: cs -> find ts cs
          | _ -> "heuristic"
        in
        find tiles cells
      in
      ratios := (heuristic /. best) :: !ratios;
      Table.add_row t
        ((label :: List.map (fun c -> Table.fmt_float (c /. heuristic)) cells)
        @ [ best_name; Table.fmt_float (heuristic /. best) ]))
    [
      ("stencil2d", Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048);
      ("dwt2d", Infs_workloads.Dwt2d.dwt2d ~n:2048);
      ("gauss_elim", Infs_workloads.Gauss.gauss_elim ~n:2048);
      ("conv2d", Infs_workloads.Conv.conv2d ~n:2048);
      ("mm/out", Infs_workloads.Mm.mm_outer ~n:2048);
    ];
  Table.print t;
  Printf.printf
    "worst-case heuristic gap vs tile-size oracle: %.1f%% (paper: within 2%%)\n\n"
    (100.0 *. (List.fold_left Float.max 1.0 !ratios -. 1.0))

let sweep_3d () =
  let tiles =
    [ [| 1; 16; 16 |]; [| 4; 8; 8 |]; [| 16; 4; 4 |]; [| 1; 2; 128 |];
      [| 2; 2; 64 |]; [| 1; 1; 256 |]; [| 64; 2; 2 |]; [| 16; 16; 1 |] ]
  in
  let t =
    Table.create ~title:"Fig 17 - Inf-S speedup vs 3D tile size (over heuristic pick)"
      ~columns:
        ("workload"
        :: List.map (fun tl -> Printf.sprintf "%dx%dx%d" tl.(0) tl.(1) tl.(2)) tiles)
  in
  List.iter
    (fun (label, w) ->
      let heuristic = (run E.Inf_s w).R.cycles in
      let row =
        List.map
          (fun tile ->
            let options = { suite_options with E.tile_override = Some tile } in
            let c =
              (run
                 ~tag:(Printf.sprintf "t%dx%dx%d" tile.(0) tile.(1) tile.(2))
                 ~options E.Inf_s w)
                .R.cycles
            in
            heuristic /. c)
          tiles
      in
      ignore (Table.add_float_row t label row))
    [
      ("stencil3d", Infs_workloads.Stencil.stencil3d ~iters:10 ~nx:512 ~ny:512 ~nz:16);
      ("conv3d", Infs_workloads.Conv.conv3d ~hw:256 ~channels:64);
      ("kmeans/in", Infs_workloads.Kmeans.kmeans_inner ~points:32768 ~dim:128 ~centers:128);
    ];
  Table.print t

(* ---------- Fig. 19: PointNet++ ---------- *)

let fig19 () =
  List.iter
    (fun (label, w) ->
      let t =
        Table.create
          ~title:(Printf.sprintf "Fig 19 - PointNet++ %s stage timeline (fraction of runtime)" label)
          ~columns:[ "config"; "FurthestSample"; "BallQuery"; "Gather"; "MLP"; "Aggregate"; "other"; "speedup" ]
      in
      let base_cycles = (run E.Base w).R.cycles in
      List.iter
        (fun p ->
          let r = run p w in
          let stage_sum = Hashtbl.create 8 in
          List.iter
            (fun (tl : R.timeline_entry) ->
              let s = Infs_workloads.Pointnet.stage_of_kernel tl.kernel in
              Hashtbl.replace stage_sum s
                (tl.cycles +. Option.value ~default:0.0 (Hashtbl.find_opt stage_sum s)))
            r.R.timeline;
          let total = Float.max 1.0 r.cycles in
          let frac s = Option.value ~default:0.0 (Hashtbl.find_opt stage_sum s) /. total in
          let known =
            frac "Furthest Sample" +. frac "Ball Query" +. frac "Gather"
            +. frac "MLP Layer" +. frac "Aggregate"
          in
          ignore
            (Table.add_float_row t (E.paradigm_to_string p)
               [
                 frac "Furthest Sample"; frac "Ball Query"; frac "Gather";
                 frac "MLP Layer"; frac "Aggregate";
                 Float.max 0.0 (1.0 -. known);
                 base_cycles /. r.cycles;
               ]))
        [ E.Base; E.Near_l3; E.In_l3; E.Inf_s ];
      Table.print t)
    [ ("SSG", Infs_workloads.Pointnet.ssg ()); ("MSG", Infs_workloads.Pointnet.msg ()) ]

(* ---------- JIT overheads (§8) ---------- *)

let jit_overheads entries =
  let t =
    Table.create ~title:"JIT overheads (Inf-S)"
      ~columns:[ "workload"; "jit % of runtime"; "avg us per lowering"; "memo hits"; "lowerings" ]
  in
  let times = ref [] in
  List.iter
    (fun (label, w) ->
      let r = run E.Inf_s w in
      let j = r.R.jit in
      if j.invocations > 0 then begin
        times := j.avg_us :: !times;
        Table.add_row t
          [
            label;
            Table.fmt_float (100.0 *. j.total_jit_cycles /. Float.max 1.0 r.cycles);
            Table.fmt_float j.avg_us;
            string_of_int j.memo_hits;
            string_of_int (j.invocations - j.memo_hits);
          ]
      end)
    (Cat.all_variants entries);
  Table.print t;
  Printf.printf "average JIT lowering time: %s us (paper: 220 us)\n\n"
    (Table.fmt_float (Stats.mean !times))

let area () =
  let t = Table.create ~title:"Area model (paper Section 8)" ~columns:[ "component"; "value" ] in
  List.iter
    (fun (k, v) -> Table.add_row t [ k; Table.fmt_float v ])
    (Area.table Area.default);
  Table.print t

(* ---------- ablations: the design choices DESIGN.md calls out ---------- *)

let ablations () =
  let t =
    Table.create ~title:"Ablations (Inf-S cycles, ratio vs full design; >1 = slower)"
      ~columns:[ "workload"; "no e-graph optimizer"; "no tiling (flat layout)"; "no JIT charge" ]
  in
  List.iter
    (fun (label, w, flat_tile) ->
      let full = (run E.Inf_s w).R.cycles in
      let no_opt =
        (run ~tag:"noopt" ~options:{ suite_options with E.optimize = false } E.Inf_s w)
          .R.cycles
      in
      let no_tiling =
        (run ~tag:"flat" ~options:{ suite_options with E.tile_override = Some flat_tile }
           E.Inf_s w)
          .R.cycles
      in
      let nojit = (run E.Inf_s_nojit w).R.cycles in
      ignore
        (Table.add_float_row t label
           [ no_opt /. full; no_tiling /. full; nojit /. full ]))
    [
      ("stencil2d", Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048, [| 1; 256 |]);
      ("conv2d", Infs_workloads.Conv.conv2d ~n:2048, [| 1; 256 |]);
      ("gauss_elim", Infs_workloads.Gauss.gauss_elim ~n:2048, [| 1; 256 |]);
      ("mm/out", Infs_workloads.Mm.mm_outer ~n:2048, [| 1; 256 |]);
      ( "stencil3d",
        Infs_workloads.Stencil.stencil3d ~iters:10 ~nx:512 ~ny:512 ~nz:16,
        [| 1; 1; 256 |] );
      ( "kmeans/in",
        Infs_workloads.Kmeans.kmeans_inner ~points:32768 ~dim:128 ~centers:128,
        [| 1; 1; 256 |] );
    ];
  Table.print t;
  (* SRAM geometry: the fat binary also carries 512-wordline schedules *)
  let t2 =
    Table.create ~title:"Fat binary geometries (wordline registers available/used)"
      ~columns:[ "workload"; "geometry"; "slots used"; "capacity" ]
  in
  List.iter
    (fun (label, w) ->
      match Fat_binary.compile w.WL.prog with
      | Error _ -> ()
      | Ok fb ->
        List.iter
          (fun (r : Fat_binary.region) ->
            List.iter
              (fun (wl, (s : Schedule.t)) ->
                Table.add_row t2
                  [
                    label ^ ":" ^ r.kernel.Ast.kname;
                    Printf.sprintf "%dx%d" wl wl;
                    string_of_int s.slots_used;
                    string_of_int s.capacity;
                  ])
              r.schedules)
          fb.regions)
    [
      ("conv2d", Infs_workloads.Conv.conv2d ~n:2048);
      ("conv3d", Infs_workloads.Conv.conv3d ~hw:256 ~channels:64);
    ];
  Table.print t2;
  (* element width: bit-serial latency is O(n) for add, so narrower types
     multiply in-memory throughput (the premise behind Eq. 1) *)
  let t3 =
    Table.create ~title:"Dtype ablation - vec_add 4M In-L3 cycles vs element type"
      ~columns:[ "dtype"; "cycles"; "vs fp32" ]
  in
  let opts =
    {
      E.default_options with
      warm_data = true;
      pre_transposed = true;
      charge_jit = false;
      share_compile = true;
    }
  in
  let cyc d =
    (run ~tag:"dtype" ~options:opts E.In_l3
       (Infs_workloads.Micro.vec_add_dtype ~dtype:d ~n:4_194_304))
      .R.cycles
  in
  let fp = cyc Dtype.Fp32 in
  List.iter
    (fun d ->
      let c = cyc d in
      Table.add_row t3
        [ Dtype.to_string d; Table.fmt_float c; Table.fmt_float (fp /. c) ])
    [ Dtype.Fp32; Dtype.Int32; Dtype.Int16; Dtype.Int8 ];
  Table.print t3

(* ---------- portability: one binary, two microarchitectures ---------- *)

let portability () =
  (* The same programs (and the same fat binaries, which carry schedules
     for both SRAM geometries) run unmodified on a future machine with
     512x512 arrays — the paper's portability requirement. *)
  let t =
    Table.create
      ~title:"Portability - Inf-S speedup over each machine's own Base (256x256 vs 512x512 arrays)"
      ~columns:[ "workload"; "256x256 machine"; "512x512 machine" ]
  in
  let big = Machine_config.big_arrays in
  List.iter
    (fun (label, w) ->
      let s cfg tag =
        let options = { suite_options with E.cfg } in
        let base = run ~tag ~options E.Base w in
        R.speedup ~baseline:base (run ~tag ~options E.Inf_s w)
      in
      ignore
        (Table.add_float_row t label
           [ s Machine_config.default "m256"; s big "m512" ]))
    [
      ("stencil2d", Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048);
      ("conv2d", Infs_workloads.Conv.conv2d ~n:2048);
      ("mm/out", Infs_workloads.Mm.mm_outer ~n:2048);
      ("gauss_elim", Infs_workloads.Gauss.gauss_elim ~n:2048);
    ];
  Table.print t

(* ---------- substrate sketch: the same stack on in-DRAM arrays ---------- *)

let substrate () =
  (* §9: the tDFG/JIT stack is hardware-neutral; swap the compute SRAM for
     DRAM subarrays (slower bit-serial steps, far more bitlines) and the
     same binaries run. *)
  let t =
    Table.create
      ~title:"Substrate sketch - In-L3 vs in-DRAM (cycles, warm+pre-transposed)"
      ~columns:[ "workload"; "compute-SRAM"; "in-DRAM"; "dram/sram" ]
  in
  List.iter
    (fun (label, w) ->
      let cyc cfg tag =
        let options =
          {
            E.default_options with
            cfg;
            warm_data = true;
            pre_transposed = true;
            charge_jit = false;
          }
        in
        (run ~tag ~options E.In_l3 w).R.cycles
      in
      let sram = cyc Machine_config.default "ssub" in
      let dram = cyc Machine_config.in_dram "dsub" in
      ignore (Table.add_float_row t label [ sram; dram; dram /. sram ]))
    [
      ("vec_add 4M", Infs_workloads.Micro.vec_add ~n:4_194_304);
      ("vec_add 32M", Infs_workloads.Micro.vec_add ~n:33_554_432);
      ("stencil2d", Infs_workloads.Stencil.stencil2d ~iters:10 ~n:2048);
    ];
  Table.print t

(* ---------- Bechamel micro-benchmarks of the framework itself ---------- *)

let bechamel_section () =
  let open Bechamel in
  let open Toolkit in
  let decompose_test =
    Test.make ~name:"alg1-decompose-2k"
      (Staged.stage (fun () ->
           ignore
             (Hyperrect.decompose
                (Hyperrect.of_ranges [ (1, 2047); (1, 2047) ])
                ~tile:[| 16; 16 |])))
  in
  let w = Infs_workloads.Stencil.stencil2d ~iters:1 ~n:2048 in
  let fb =
    match Fat_binary.compile w.WL.prog with Ok fb -> fb | Error e -> failwith e
  in
  let region = List.hd fb.Fat_binary.regions in
  let g = region.Fat_binary.optimized in
  let schedule = List.assoc 256 region.Fat_binary.schedules in
  let layout =
    match Layout.of_tile cfg ~shape:[| 2048; 2048 |] ~tile:[| 16; 16 |] with
    | Ok l -> l
    | Error e -> failwith e
  in
  let env = function "N" -> 2048 | "T" -> 1 | _ -> 0 in
  let jit_test =
    Test.make ~name:"jit-lower-stencil2d"
      (Staged.stage (fun () -> ignore (Jit.lower cfg g ~schedule ~layout ~env)))
  in
  let conv = Infs_workloads.Conv.conv2d ~n:2048 in
  let ck = List.hd (Ast.kernels conv.WL.prog) in
  let initial =
    match Frontend.extract conv.WL.prog ck with Ok g -> g | Error _ -> failwith "?"
  in
  let egraph_test =
    Test.make ~name:"egraph-optimize-conv2d"
      (Staged.stage (fun () ->
           ignore
             (Extract.optimize ~arrays:(Frontend.array_extents conv.WL.prog) initial)))
  in
  let t =
    Table.create ~title:"Bechamel - framework hot paths"
      ~columns:[ "test"; "ns/run (monotonic clock, OLS)" ]
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw =
        Benchmark.all
          (Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ())
          Instance.[ monotonic_clock ]
          test
      in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name r ->
          let est =
            match Analyze.OLS.estimates r with
            | Some (x :: _) -> x
            | _ -> nan
          in
          Table.add_row t [ name; Table.fmt_float est ])
        results)
    [ decompose_test; jit_test; egraph_test ];
  Table.print t

(* ---------- metrics: JSON result dump + disabled-overhead bound ---------- *)

(* Dump every cached (workload, paradigm, tag) cycle count as
   schema infs-bench-1, the input format of `infs_run bench-diff` — the
   CI regression gate diffs this against a committed baseline. Sorted by
   key, so the file is deterministic for a given suite.

   [meta] is provenance the caller supplies (--meta-commit / --meta-time);
   the dump never reads the clock itself, so the bytes stay reproducible
   and `infs_run trend` can order snapshots without trusting filenames. *)
let dump_json ~suite ~meta file =
  let entries =
    Mutex.protect cache_mu (fun () ->
        Hashtbl.fold (fun k r acc -> (k, r) :: acc) cache [])
  in
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  let results =
    List.map
      (fun (key, (r : R.t)) ->
        let w, p, tag =
          match String.split_on_char '|' key with
          | [ w; p; t ] -> (w, p, t)
          | w :: p :: rest -> (w, p, String.concat "|" rest)
          | _ -> (key, "", "")
        in
        Json.Obj
          [
            ("workload", Json.Str w);
            ("paradigm", Json.Str p);
            ("tag", Json.Str tag);
            ("cycles", Json.Num r.R.cycles);
          ])
      entries
  in
  let j =
    Json.Obj
      ([
         ("schema", Json.Str "infs-bench-1");
         ("suite", Json.Str suite);
         ("results", Json.Arr results);
       ]
      @
      match meta with
      | [] -> []
      | kvs ->
        [ ("meta", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)) ])
  in
  let oc = open_out file in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc;
  Printf.printf "bench results: %d entries -> %s\n\n" (List.length results) file

(* The disabled-instrumentation contract: with a hook off, each site a run
   passes costs one cheap test. Measure the test's cost ([guard], 20M
   iterations), take the number of sites one run passes ([sites], counted
   on an armed run), and bound the disabled run's overhead as
   sites x cost / wall time; fail the bench if the estimate crosses 2%. *)
let overhead_workload = Infs_workloads.Stencil.stencil2d ~iters:2 ~n:256
let overhead_run options = E.run_exn ~options E.Inf_s overhead_workload

let overhead_check ~label ~guard ~sites =
  let guard_ns =
    let n = 20_000_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      if guard () then ignore (Sys.opaque_identity n)
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int n
  in
  (* time the disabled run after a warmup (compile cache, allocator) *)
  ignore (overhead_run suite_options);
  let t0 = Unix.gettimeofday () in
  ignore (overhead_run suite_options);
  let wall = Unix.gettimeofday () -. t0 in
  let overhead = float_of_int sites *. guard_ns *. 1e-9 /. Float.max 1e-9 wall in
  Printf.printf
    "%s overhead: %d disabled guards x %.2f ns = %.4f%% of a %.1f ms run (budget 2%%)\n\n"
    label sites guard_ns (100.0 *. overhead) (1e3 *. wall);
  if overhead >= 0.02 then begin
    Printf.eprintf "FAIL: disabled-%s overhead %.2f%% exceeds the 2%% budget\n" label
      (100.0 *. overhead);
    exit 1
  end

(* Three hooks: the instrumentation handle (one [Obs.on] test per emit
   site, so this bounds the trace and the registry together; every emit
   and every live-only registry write is one [Metrics.calls]), the span
   profiler, and the fault hooks (one option match per draw site; a
   zero-rate spec counts the draws of a run cycle-identical to a
   disabled one). *)
let overhead_checks () =
  let metrics = Metrics.create () in
  ignore (overhead_run { suite_options with E.metrics });
  overhead_check ~label:"instrumentation-handle" ~sites:(Metrics.calls metrics) ~guard:(fun () ->
      Obs.on (Sys.opaque_identity Obs.null));
  let prof = Prof.create () in
  ignore (overhead_run { suite_options with E.prof });
  overhead_check ~label:"prof" ~sites:(Prof.calls prof) ~guard:(fun () ->
      Prof.enabled (Sys.opaque_identity Prof.null));
  let armed = match Fault.parse "seed=42" with Ok s -> s | Error e -> failwith e in
  let draws =
    match (overhead_run { suite_options with E.faults = armed }).R.faults with
    | Some f -> f.R.draws
    | None -> failwith "no fault summary"
  in
  overhead_check ~label:"fault-hook" ~sites:draws ~guard:(fun () ->
      match Sys.opaque_identity (None : int option) with Some _ -> true | None -> false)

(* ---------- attention sweep: sequence-length x paradigm crossover ----------

   A Fig. 2-style study at sizes the paper never measured: scaled-dot-
   product attention (batch 1, head dim 64) with the sequence length
   swept across the in-/near-memory crossover. A standalone suite
   (--attn-sweep): the report cache then holds exactly these entries, so
   --json dumps a sweep-only file for the CI bench-diff gate. *)

let attn_sweep_paradigms = [ E.Base_1; E.Base; E.Near_l3; E.In_l3; E.Inf_s ]
let attn_sweep_seqs = [ 64; 128; 256; 512; 1024 ]

let attn_sweep () =
  let wl seq = Infs_workloads.Transformer.attention ~batch:1 ~seq ~dh:64 () in
  (* fill the cache from the pool first (identical results, less wall) *)
  let specs =
    List.concat_map
      (fun seq -> List.map (fun p -> (p, wl seq)) attn_sweep_paradigms)
      attn_sweep_seqs
  in
  let outcomes =
    Pool.run_list ~jobs:!bench_jobs
      (List.map (fun (p, w) () -> ignore (run p w)) specs)
  in
  List.iter
    (function
      | Ok () -> ()
      | Error e -> failwith ("attn-sweep: " ^ Pool.error_to_string e))
    outcomes;
  let t =
    Table.create
      ~title:
        "Attention crossover - cycles by sequence length (batch 1, head dim 64)"
      ~columns:
        (("seq len" :: List.map E.paradigm_to_string attn_sweep_paradigms)
        @ [ "winner" ])
  in
  List.iter
    (fun seq ->
      let cycles =
        List.map (fun p -> (run p (wl seq)).R.cycles) attn_sweep_paradigms
      in
      let best = List.fold_left Float.min infinity cycles in
      let winner =
        List.fold_left2
          (fun acc p c -> if c = best then E.paradigm_to_string p else acc)
          "?" attn_sweep_paradigms cycles
      in
      Table.add_row t
        ((string_of_int seq :: List.map Table.fmt_float cycles) @ [ winner ]))
    attn_sweep_seqs;
  Table.print t

(* ---------- tuned mode (--tuned): search vs the Eq. 2 heuristic ----------

   Tune each entry (infs_tune's candidate search on the worker pool), print
   tuned-vs-heuristic cycles side by side, then run every winner through the
   report cache under tag "tuned" — so a --json dump carries the tuned cycle
   counts and the existing bench-diff gate pins them like any other entry. *)

let tuned_section pairs =
  let t =
    Table.create ~title:"Autotuned vs Eq. 2 heuristic (Inf-S baseline)"
      ~columns:[ "workload"; "heuristic"; "tuned"; "gap"; "explored"; "winner" ]
  in
  let gaps = ref [] in
  List.iter
    (fun (label, (w : WL.t)) ->
      match
        Infs_tune.Tune.tune ~options:suite_options ~jobs:!bench_jobs (fun () -> w)
      with
      | Error e -> failwith (Printf.sprintf "tune %s: %s" label e)
      | Ok res ->
        let p, options = Infs_tune.Tune.apply res suite_options in
        ignore (run ~tag:"tuned" ~options p w);
        gaps := res.gap :: !gaps;
        Table.add_row t
          [
            label;
            Table.fmt_float res.Infs_tune.Tune.baseline.cycles;
            Table.fmt_float res.winner.cycles;
            Table.fmt_float res.gap;
            string_of_int (List.length res.explored);
            Json.to_string (Infs_tune.Tune.config_to_json res.winner.config);
          ])
    pairs;
  Table.print t;
  Printf.printf "tuned geomean gap over Eq. 2 heuristic: %.3fx\n\n"
    (Stats.geomean !gaps)

(* ---------- seeded degraded-mode section (--faults SPEC) ---------- *)

(* Runs outside the report cache on purpose: fault-afflicted cycle counts
   must never leak into the --json dump the regression gate diffs. *)
let fault_section spec =
  let t =
    Table.create
      ~title:
        (Printf.sprintf "Degraded mode - Inf-S under faults [%s]"
           (Fault.to_string spec))
      ~columns:
        [ "workload"; "cycles"; "vs clean"; "injected"; "retries"; "fallbacks"; "wasted%" ]
  in
  List.iter
    (fun (label, w) ->
      let clean = E.run_exn ~options:suite_options E.Inf_s w in
      let r =
        E.run_exn ~options:{ suite_options with E.faults = spec } E.Inf_s w
      in
      match r.R.faults with
      | None -> ()
      | Some f ->
        Table.add_row t
          [
            label;
            Table.fmt_float r.R.cycles;
            Table.fmt_float (r.R.cycles /. Float.max 1.0 clean.R.cycles);
            string_of_int
              (List.fold_left (fun a (_, n) -> a + n) 0 f.R.injected);
            string_of_int f.R.retries;
            string_of_int f.R.fallbacks;
            Table.fmt_float
              (100.0 *. f.R.wasted_cycles /. Float.max 1.0 r.R.cycles);
          ])
    (Cat.all_variants (Cat.test_scale ()));
  Table.print t

(* ---------- trace hook ---------- *)

let trace_demo file =
  (* structured-trace hook: run one representative workload with the JSONL
     sink so the bench can be inspected in a trace viewer / diffed *)
  let oc = open_out file in
  let trace = Trace.to_channel Trace.Jsonl oc in
  let options = { suite_options with E.trace } in
  let w = Infs_workloads.Stencil.stencil2d ~iters:2 ~n:48 in
  let r = E.run_exn ~options E.Inf_s w in
  Trace.close trace;
  close_out oc;
  Printf.printf "trace: %s [Inf-S] %d events -> %s\n\n" w.WL.wname
    (Trace.events_seen trace) file;
  ignore r

(* ---------- profile hook ---------- *)

let prof_demo file =
  (* profiler hook: run one representative workload instrumented and write
     the span report (format by extension) plus folded stacks alongside *)
  let prof = Prof.create () in
  let options = { suite_options with E.prof } in
  let w = Infs_workloads.Stencil.stencil2d ~iters:2 ~n:48 in
  let r = E.run_exn ~options E.Inf_s w in
  Prof.write_file prof file;
  let folded = file ^ ".folded" in
  let oc = open_out folded in
  output_string oc (Prof.to_folded prof);
  close_out oc;
  Printf.printf "profile: %s [Inf-S] %d span paths, %d calls -> %s (+ %s)\n\n"
    w.WL.wname
    (List.length (Prof.rows prof))
    (Prof.calls prof) file folded;
  ignore r

(* ---------- main ---------- *)

let full () =
  print_header ();
  let entries = Cat.table3 () in
  prewarm ~fig2:true entries;
  fig2 ();
  fig11 entries;
  fig12 entries;
  fig13 entries;
  fig14 entries;
  fig15 ();
  sweep_2d ();
  sweep_3d ();
  fig18 entries;
  fig19 ();
  jit_overheads entries;
  ablations ();
  portability ();
  substrate ();
  area ();
  bechamel_section ()

(* ---------- sim-rate: hot-path throughput + cost-memo effectiveness ----------

   Simulated cycles per wall-clock second over the test-scale catalog on
   the four main paradigms — warm data, shared compiles, single domain:
   the exact hot path the identity tier pins byte-for-byte. [baseline]
   is this loop's rate measured at the PR 8 head (commit adb2913), before
   the flat-core rewrite; the printed speedup tracks the rewrite. The
   hard assertion is on the cost-memo hit rate (wall-clock depends on the
   host; memo behavior does not). *)
let sim_rate_baseline = 1.02e8

let sim_rate_section () =
  let combos =
    List.concat_map
      (fun (e : Cat.entry) ->
        match e.variants with
        | (_, w) :: _ ->
          List.map (fun p -> (p, w)) [ E.Base; E.Near_l3; E.In_l3; E.Inf_s ]
        | [] -> [])
      (Cat.test_scale ())
  in
  (* bypass the report cache: this section times simulation, not lookup *)
  List.iter (fun (p, w) -> ignore (E.run_exn ~options:suite_options p w)) combos;
  Costmemo.reset ();
  let reps = 20 in
  let simulated = ref 0.0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    List.iter
      (fun (p, w) ->
        simulated :=
          !simulated +. (E.run_exn ~options:suite_options p w).R.cycles)
      combos
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let rate = !simulated /. wall in
  Printf.printf
    "sim rate: %.3e simulated cycles/sec (%d combos x %d reps, %.1f ms wall)\n"
    rate (List.length combos) reps (wall *. 1e3);
  Printf.printf "sim speedup: %.1fx the pre-rewrite baseline %.2e cycles/sec\n"
    (rate /. sim_rate_baseline)
    sim_rate_baseline;
  let hr = Costmemo.hit_rate () in
  Printf.printf
    "cost memo: sim.costmemo.hit=%d sim.costmemo.miss=%d -> %.2f%% hit rate \
     (floor 90%%)\n\n"
    (Costmemo.hits ()) (Costmemo.misses ()) (100.0 *. hr);
  if hr <= 0.90 then begin
    Printf.printf "FAIL: cost-memo hit rate %.2f%% <= 90%%\n" (100.0 *. hr);
    exit 1
  end

(* CI target: the full pipeline (compile, simulate, aggregate) on the
   test-scale suite in a few seconds instead of minutes *)
let smoke () =
  print_header ();
  let entries = Cat.test_scale () in
  prewarm entries;
  fig11 entries;
  fig14 entries;
  jit_overheads entries;
  sim_rate_section ();
  overhead_checks ()

let () =
  print_endline "infinity stream - benchmark harness (ASPLOS'23 evaluation)";
  print_newline ();
  let argv = Array.to_list Sys.argv in
  let trace_file =
    let rec find = function
      | "--trace" :: f :: _ -> Some f
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let json_file =
    let rec find = function
      | "--json" :: f :: _ -> Some f
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let prof_file =
    let rec find = function
      | "--prof" :: f :: _ -> Some f
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  let meta =
    let rec find flag = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find flag rest
      | [] -> None
    in
    List.filter_map
      (fun (k, flag) ->
        Option.map (fun v -> (k, v)) (find flag argv))
      [ ("commit", "--meta-commit"); ("timestamp", "--meta-time") ]
  in
  let jobs =
    let rec find = function
      | "--jobs" :: n :: _ -> int_of_string_opt n
      | _ :: rest -> find rest
      | [] -> None
    in
    match find argv with
    | Some n -> max 1 n
    | None -> Pool.recommended_jobs ()
  in
  let fault_spec =
    let rec find = function
      | "--faults" :: s :: _ -> (
        match Fault.parse s with
        | Ok sp -> Some sp
        | Error e ->
          prerr_endline ("error: --faults: " ^ e);
          exit 2)
      | _ :: rest -> find rest
      | [] -> None
    in
    find argv
  in
  bench_jobs := jobs;
  let t0 = Unix.gettimeofday () in
  Option.iter trace_demo trace_file;
  Option.iter prof_demo prof_file;
  let suite =
    if List.mem "--attn-sweep" argv then "attn-sweep"
    else if List.mem "--smoke" argv then "smoke"
    else "full"
  in
  (match suite with
  | "attn-sweep" -> attn_sweep ()
  | "smoke" -> smoke ()
  | _ -> full ());
  if List.mem "--tuned" argv then begin
    let micro n =
      [
        ("vec_add", Infs_workloads.Micro.vec_add ~n);
        ("array_sum", Infs_workloads.Micro.array_sum ~n);
      ]
    in
    let pairs =
      match suite with
      | "attn-sweep" ->
        List.map
          (fun seq ->
            ( Printf.sprintf "attention/seq%d" seq,
              Infs_workloads.Transformer.attention ~batch:1 ~seq ~dh:64 () ))
          attn_sweep_seqs
      | "smoke" -> Cat.all_variants (Cat.test_scale ()) @ micro 16_384
      | _ -> Cat.all_variants (Cat.table3 ()) @ micro 4_194_304
    in
    tuned_section pairs
  end;
  Option.iter fault_section fault_spec;
  Option.iter (dump_json ~suite ~meta) json_file;
  let hits, misses, entries = E.compile_cache_stats () in
  Printf.printf
    "total: %.2f s wall-clock on %d domain%s; compile cache: %d hits / %d \
     misses (%d entries, %.0f%% hit rate)\n"
    (Unix.gettimeofday () -. t0)
    jobs
    (if jobs = 1 then "" else "s")
    hits misses entries
    (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
  print_endline "done."
