(* Per-layer probes for the traced run. Each one times a layer's public
   entry point from the harness — frontend, e-graph, fat binary, JIT,
   in-memory execution model, engine per paradigm — over the programs of
   the workload being measured (or, for JIT/IMC, a fixed region). *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module W = Infinity_stream.Workload

let now = Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let mb bytes = bytes /. 1048576.0

let paradigms = [ ("base", E.Base); ("near-l3", E.Near_l3); ("in-l3", E.In_l3); ("inf-s", E.Inf_s) ]

(* Static compilation of every program: frontend extraction and e-graph
   optimization per kernel, then the whole fat-binary pipeline (which
   repeats both and adds scheduling). *)
let compile_chain (programs : W.t list) =
  let extract = ref 0.0 and optimize = ref 0.0 and alloc = ref 0.0 in
  let rounds = ref 0 and fat = ref 0.0 in
  List.iter
    (fun (w : W.t) ->
      let arrays = Frontend.array_extents w.prog in
      List.iter
        (fun k ->
          let g, dt = time (fun () -> Frontend.extract w.prog k) in
          extract := !extract +. dt;
          match g with
          | Error _ -> ()
          | Ok g ->
            let a0 = Gc.allocated_bytes () in
            let (_, st), dt = time (fun () -> Extract.optimize ~arrays g) in
            alloc := !alloc +. (Gc.allocated_bytes () -. a0);
            optimize := !optimize +. dt;
            rounds := !rounds + st.Extract.rounds)
        (Ast.kernels w.prog);
      let _, dt = time (fun () -> Fat_binary.compile w.prog) in
      fat := !fat +. dt)
    programs;
  Results.
    [
      ("frontend.extract_ms", num (!extract *. 1e3));
      ("egraph.optimize_ms", num (!optimize *. 1e3));
      ("egraph.alloc_mb", num (mb !alloc));
      ("egraph.rounds", num (float_of_int !rounds));
      ("compiler.fat_binary_ms", num (!fat *. 1e3));
    ]

(* Every program under each main paradigm with shared compiles, after one
   untimed run each; the median over programs of the median of [reps]
   timed runs. The timed runs' reports give the JIT memo and command
   counts, and the cost memo's hit rate is taken over them alone. *)
let paradigm_runs ?(reps = 3) (programs : W.t list) =
  let options = { E.default_options with share_compile = true } in
  let runs = ref 0 and alloc = ref 0.0 in
  let hits = ref 0 and invocations = ref 0 and commands = ref 0 in
  List.iter (fun (_, p) -> List.iter (fun w -> ignore (E.run ~options p w)) programs) paradigms;
  Costmemo.reset ();
  let per_paradigm =
    List.map
      (fun (pn, p) ->
        let medians =
          List.map
            (fun w ->
              Stats.median
                (List.init reps (fun _ ->
                     let a0 = Gc.allocated_bytes () in
                     let r, dt = time (fun () -> E.run_exn ~options p w) in
                     alloc := !alloc +. (Gc.allocated_bytes () -. a0);
                     incr runs;
                     hits := !hits + r.R.jit.memo_hits;
                     invocations := !invocations + r.R.jit.invocations;
                     commands := !commands + r.R.jit.total_commands;
                     dt *. 1e3)))
            programs
        in
        ("engine.run_ms." ^ pn, Results.num (Stats.median medians)))
      paradigms
  in
  per_paradigm
  @ Results.
      [
        ("engine.alloc_mb_per_run", num (mb (!alloc /. float_of_int (max 1 !runs))));
        ("costmemo.hit_ratio", num (Costmemo.hit_rate ()));
        ("jit.memo_hit_ratio", num (Stats.ratio (float_of_int !hits) (float_of_int !invocations)));
        ("jit.commands", num (float_of_int (!commands / max 1 reps)));
      ]

(* JIT lowering and in-memory execution of one fixed region — the 2048^2
   stencil2d kernel on 16x16 tiles — so the two rows compare across
   workloads and commits. Each sample repeats the call [inner] times to
   stay well above the clock's microsecond resolution. *)
let jit_imc ?(reps = 20) ?(inner = 50) () =
  let cfg = Machine_config.default in
  let w = Infs_workloads.Stencil.stencil2d ~iters:1 ~n:2048 in
  match Fat_binary.compile w.prog with
  | Error e -> failwith e
  | Ok fb ->
    let region = List.hd fb.Fat_binary.regions in
    let g = region.Fat_binary.optimized in
    let schedule = List.assoc 256 region.Fat_binary.schedules in
    let layout =
      match Layout.of_tile cfg ~shape:[| 2048; 2048 |] ~tile:[| 16; 16 |] with
      | Ok l -> l
      | Error e -> failwith e
    in
    let env = function "N" -> 2048 | "T" -> 1 | _ -> 0 in
    let lower () = fst (Jit.lower cfg g ~schedule ~layout ~env) in
    let cmds = lower () in
    let repeat f = snd (time (fun () -> for _ = 1 to inner do ignore (f ()) done)) /. float_of_int inner in
    let lower_us = List.init reps (fun _ -> repeat lower *. 1e6) in
    let execute () = Imc.execute cfg (Traffic.create cfg) ~layout:(Layout.imc_view layout) cmds in
    let per_cmd = float_of_int (max 1 (execute ()).Imc.commands) in
    let exec_ns = List.init reps (fun _ -> repeat execute *. 1e9 /. per_cmd) in
    Results.
      [
        ("jit.lower_us", of_sample (Sample.of_list lower_us));
        ("imc.execute_ns_per_cmd", of_sample (Sample.of_list exec_ns));
      ]
