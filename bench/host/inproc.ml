(* The in-process workloads: cold-run, warm-sim and tune-sweep. Each is a
   fixed list of operations (one pass) that the harness runs a fixed
   number of times in seeded order, plus the set-up that makes them ready
   and a reference that every result must match. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module W = Infinity_stream.Workload
module Cat = Infs_workloads.Catalog
module Tune = Infs_tune.Tune

(* The name -> workload table of [infs_run] at either scale: the catalog
   variants plus the micro-benchmarks and PointNet++. *)
let catalog scale =
  let paper = scale = `Paper in
  Cat.all_variants (if paper then Cat.table3 () else Cat.test_scale ())
  @ [
      ("vec_add", Infs_workloads.Micro.vec_add ~n:(if paper then 4_194_304 else 16_384));
      ("array_sum", Infs_workloads.Micro.array_sum ~n:(if paper then 4_194_304 else 16_384));
      ( "pointnet/ssg",
        if paper then Infs_workloads.Pointnet.ssg () else Infs_workloads.Pointnet.tiny () );
      ( "pointnet/msg",
        if paper then Infs_workloads.Pointnet.msg () else Infs_workloads.Pointnet.tiny () );
    ]

let resolve scale name =
  match List.assoc_opt name (catalog scale) with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

(* What one operation produced: simulated cycles (for the host rate) and
   the bytes its correctness is judged on. *)
type outcome = { cycles : float; runs : int; output : string }

(* [exec] returns the outcome as a thunk, so serializing the output is
   kept out of the op's timing. [prof] is the engine's own span profiler,
   switched on in the traced run where the op can carry it. *)
type op = {
  label : string;
  exec : jobs:int -> prof:Prof.t -> (unit -> outcome, string) result;
}

let of_report r = { cycles = r.R.cycles; runs = 1; output = Json.to_string (R.to_json r) }

let engine_op ~options label p w =
  {
    label;
    exec =
      (fun ~jobs:_ ~prof ->
        Result.map (fun r () -> of_report r) (E.run ~options:{ options with prof } p w));
  }

let shared = { E.default_options with share_compile = true }

type t = {
  name : string;
  nominal_pass_s : float;
      (** seconds per pass on the 2-core reference host; only fixes the
          pass count for a given run length *)
  jobs : int;  (** worker domains inside one operation (tune's fan-out) *)
  setup : unit -> op list;  (** from cold caches to ready; the pass's ops *)
  setups : int;
      (** set-ups per run, whose median is [setup_s]; each is timed in a
          child process started for it, so it also pays the process start
          and module initialization a fresh [infs_run] pays *)
  before_pass : unit -> unit;
  reference : (op list -> (string * (outcome, string) result) list) option;
      (** an independent way to produce each op's output *)
  programs : unit -> W.t list;  (** the distinct programs, for the layer probes *)
}

(* What `infs_run run` pays: a private compile (about 85% of it is
   e-graph saturation + extraction) and cold data, for every Table 3
   variant at paper scale. No reference run: every pass recompiles from
   scratch, so passes must agree with each other. Set-up is little more
   than the process start, so it is repeated enough for a steady median. *)
let cold_run =
  {
    name = "cold-run";
    nominal_pass_s = 1.7;
    jobs = 1;
    setup =
      (fun () ->
        List.map
          (fun (label, w) -> engine_op ~options:E.default_options label E.Inf_s w)
          (Cat.all_variants (Cat.table3 ())));
    setups = 9;
    before_pass = ignore;
    reference = None;
    programs = (fun () -> List.map snd (Cat.all_variants (Cat.table3 ())));
  }

let warm_names = [ "gauss_elim"; "mm/out"; "stencil2d"; "kmeans/out"; "pointnet/ssg"; "pointnet/msg" ]

(* Compiles shared and every JIT memo, invocation cache and cost memo hot
   after a warm-up pass: dispatch and the sim models only. Reference: a
   private, cold-compiled run of each spec on a freshly built workload. *)
let warm_sim =
  let specs () =
    List.concat_map
      (fun n -> List.map (fun (pn, p) -> (n ^ " " ^ pn, n, p)) Ledger.paradigms)
      warm_names
  in
  {
    name = "warm-sim";
    nominal_pass_s = 0.45;
    jobs = 1;
    setup =
      (fun () ->
        E.compile_cache_clear ();
        let ops =
          List.map
            (fun (label, n, p) -> engine_op ~options:shared label p (resolve `Paper n))
            (specs ())
        in
        List.iter (fun o -> ignore (o.exec ~jobs:1 ~prof:Prof.null)) ops;
        ops);
    setups = 3;
    before_pass = ignore;
    reference =
      Some
        (fun _ ->
          List.map
            (fun (label, n, p) ->
              (label, Result.map of_report (E.run ~options:E.default_options p (resolve `Paper n))))
            (specs ()));
    programs = (fun () -> List.map (resolve `Paper) warm_names);
  }

(* `infs_run tune --scale test --all`: thousands of short, distinct scoring
   runs over fresh pool domains, with the compile cache warmed in set-up.
   Each op is one Tune.tune call at 2 jobs; the memo is cleared before
   every pass. Reference: the same search at 1 job, which must pick the
   same winner. *)
let tune_sweep =
  let names () = List.map fst (catalog `Test) in
  let tune ~jobs name =
    Tune.tune ~jobs (fun () -> resolve `Test name)
    |> Result.map (fun (r : Tune.result) () ->
           {
             cycles = List.fold_left (fun a (s : Tune.scored) -> a +. s.cycles) 0.0 r.explored;
             runs = List.length r.explored;
             (* a repeated program (both PointNet entries are the same tiny
                cloud at test scale) is a memo hit whose [explored] depends
                on pass order, so the winner is what is compared *)
             output =
               Json.to_string
                 (Json.Arr
                    [
                      Tune.config_to_json r.winner.config;
                      Json.Num r.winner.cycles;
                      Json.Num r.baseline.cycles;
                    ]);
           })
  in
  {
    name = "tune-sweep";
    nominal_pass_s = 1.9;
    jobs = 2;
    setup =
      (fun () ->
        E.compile_cache_clear ();
        Tune.cache_clear ();
        List.iter (fun (_, w) -> ignore (E.run ~options:shared E.Inf_s w)) (catalog `Test);
        (* the scoring runs share one options record across pool domains,
           so a (single-domain) profiler cannot ride along *)
        List.map (fun n -> { label = n; exec = (fun ~jobs ~prof:_ -> tune ~jobs n) }) (names ()));
    setups = 3;
    before_pass = Tune.cache_clear;
    reference =
      Some
        (fun _ ->
          Tune.cache_clear ();
          List.map (fun n -> (n, Result.map (fun th -> th ()) (tune ~jobs:1 n))) (names ()));
    programs = (fun () -> List.map snd (catalog `Test));
  }

let all = [ cold_run; warm_sim; tune_sweep ]

(* ---- running a workload ---- *)

let now = Clock.now

let passes w ~seconds =
  max 1 (Float.to_int (Float.round (seconds /. w.nominal_pass_s)))

(* Judges every op output against the reference (or, without one, the
   first output seen for that op) once the timed phases are over. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable outputs : (string * Digest.t) list;
}

let tally () = { attempted = 0; failed = 0; outputs = [] }

type pass = {
  wall : float;
  cpu : float;
  cycles : float;
  runs : int;
  latencies_ms : (string * float) list;  (** per op *)
}

let empty_pass = { wall = 0.0; cpu = 0.0; cycles = 0.0; runs = 0; latencies_ms = [] }

(* Count one op's result into the tally (serializing its output now, off
   the clock) and into the pass. *)
let account w tl p (label, r, dt) =
  tl.attempted <- tl.attempted + 1;
  match r with
  | Error e ->
    prerr_endline (Printf.sprintf "host_bench: %s %s failed: %s" w.name label e);
    tl.failed <- tl.failed + 1;
    p
  | Ok th ->
    let o = th () in
    tl.outputs <- (label, Digest.string o.output) :: tl.outputs;
    {
      p with
      cycles = p.cycles +. o.cycles;
      runs = p.runs + o.runs;
      latencies_ms = (label, dt *. 1e3) :: p.latencies_ms;
    }

let timed f =
  let c0 = Host.cpu_self () and t0 = now () in
  let r = f () in
  (r, now () -. t0, Host.cpu_self () -. c0)

(* One pass in seeded order at [jobs] workers inside each op. *)
let run_pass ?(prof = Prof.null) w ~rng ~jobs tl ops =
  w.before_pass ();
  let order = Array.of_list ops in
  Rng.shuffle rng order;
  let res, wall, cpu =
    timed (fun () ->
        Array.map
          (fun o ->
            let t = now () in
            let r = o.exec ~jobs ~prof in
            (o.label, r, now () -. t))
          order)
  in
  Array.fold_left (account w tl) { empty_pass with wall; cpu } res

(* One pass with its ops fanned out over a fresh pool of [jobs] domains
   (op latencies are not comparable here and stay unrecorded). *)
let pooled_pass w ~jobs tl ops =
  w.before_pass ();
  let outcomes, wall, cpu =
    timed (fun () -> Pool.run_list ~jobs (List.map (fun o () -> o.exec ~jobs:1 ~prof:Prof.null) ops))
  in
  List.fold_left2
    (fun p o r ->
      let r = match r with Ok r -> r | Error e -> Error (Pool.error_to_string e) in
      { (account w tl p (o.label, r, 0.0)) with latencies_ms = [] })
    { empty_pass with wall; cpu } ops outcomes

let check w tl ops =
  let expected = Hashtbl.create 64 in
  (match w.reference with
  | Some f ->
    List.iter
      (fun (label, r) ->
        match r with
        | Ok o -> Hashtbl.replace expected label (Digest.string o.output)
        | Error e -> prerr_endline (Printf.sprintf "host_bench: %s reference %s failed: %s" w.name label e))
      (f ops)
  | None ->
    List.iter (fun (label, d) -> Hashtbl.replace expected label d) tl.outputs);
  List.iter
    (fun (label, d) ->
      if Hashtbl.find_opt expected label <> Some d then begin
        prerr_endline (Printf.sprintf "host_bench: %s %s: output differs from the reference" w.name label);
        tl.failed <- tl.failed + 1
      end)
    tl.outputs

(* Op latencies summarize per op first: the ops of a pass are different
   programs whose times differ by orders of magnitude, so a percentile
   over all samples would land on one op's extreme repetitions. Each op's
   median over the passes is its latency; p50 is the median op and the
   tail is the slowest op. *)
let pass_values ps =
  let s f = Sample.of_list (List.map f ps) in
  let by_op = Hashtbl.create 32 in
  List.iter
    (fun p ->
      List.iter
        (fun (label, ms) ->
          Hashtbl.replace by_op label (ms :: Option.value ~default:[] (Hashtbl.find_opt by_op label)))
        p.latencies_ms)
    ps;
  let op_ms = Hashtbl.fold (fun _ l acc -> Stats.median l :: acc) by_op [] in
  let ops = ("ops", Json.Num (float_of_int (List.length op_ms))) in
  Results.
    [
      ("pass_s", of_sample (s (fun p -> p.wall)));
      ("cpu_s", of_sample (s (fun p -> p.cpu)));
      ("sim_rate", of_sample (s (fun p -> p.cycles /. p.wall)));
      ("p50_ms", { v = Some (Stats.median op_ms); detail = [ ops ] });
      ("tail_ms", { v = Some (Stats.maximum op_ms); detail = [ ops ] });
    ]

let calib_values calib =
  let s = Sample.of_list calib in
  ( Results.("host.calib_ms", of_sample s),
    if Sample.spread s > 0.10 then
      [ Printf.sprintf "noise probe spread %.0f%% > 10%%" (100.0 *. Sample.spread s) ]
    else [] )

let fail_ratio tl = Results.num (Stats.ratio (float_of_int tl.failed) (float_of_int (max 1 tl.attempted)))

let find name = List.find_opt (fun w -> w.name = name) all

(* The end-to-end run: [setups] timed set-ups in child processes (with 0,
   this process's own set-up is the one timed), this process's set-up,
   then the fixed number of timed passes. The noise probe runs before
   every set-up and every pass, and each phase is normalized by its own
   probes: set-ups come first and the host's speed moves within a run. *)
let run ?setups w ~seed ~seconds =
  let rng = Rng.create seed in
  let children =
    List.init (Option.value setups ~default:w.setups) (fun _ ->
        Host.probed (fun () ->
            Host.time_process [| Sys.executable_name; "--workload"; w.name; "--setup-only" |]))
  in
  let own_probe, (ops, own) = Host.probed (fun () -> Ledger.time w.setup) in
  let setups = if children = [] then [ (own_probe, own) ] else children in
  let tl = tally () in
  let probes, ps =
    List.split
      (List.init (passes w ~seconds) (fun _ ->
           Host.probed (fun () -> run_pass w ~rng ~jobs:w.jobs tl ops)))
  in
  let peak = Host.peak_rss_mb () in
  check w tl ops;
  let calib_v, flags = calib_values probes in
  ( Results.normalize
      ~calib:(Stats.median (List.map fst setups))
      [ "setup_s" ]
      Results.[ ("setup_s", of_sample (Sample.of_list (List.map snd setups))) ]
    @ Results.normalize ~calib:(Stats.median probes)
        [ "pass_s"; "cpu_s"; "sim_rate"; "p50_ms"; "tail_ms" ]
        (pass_values ps)
    @ Results.[ ("peak_rss_mb", num peak); ("fail_ratio", fail_ratio tl); calib_v ],
    tl.attempted,
    tl.failed,
    flags )

let live_mb () =
  Gc.full_major ();
  Ledger.mb (float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)))

(* The traced run: passes with the engine's span profiler off and on
   alternate (so host drift hits both alike) for the tracing overhead,
   with the live heap sampled after each for its growth per pass; then
   the same pass at one and two workers for the pool rows, and the layer
   probes over the workload's programs. *)
let run_layers w ~seed ~seconds =
  let rng = Rng.create seed in
  let ops = w.setup () in
  let tl = tally () in
  let k = max 3 (passes w ~seconds / 3) in
  let calib = ref [] and plain = ref [] and traced = ref [] and live = ref [] in
  let cc0 = E.compile_cache_stats () in
  for _ = 1 to k do
    calib := Host.calib_ms () :: !calib;
    plain := run_pass w ~rng ~jobs:w.jobs tl ops :: !plain;
    live := live_mb () :: !live;
    traced := run_pass ~prof:(Prof.create ()) w ~rng ~jobs:w.jobs tl ops :: !traced;
    live := live_mb () :: !live
  done;
  let cc1 = E.compile_cache_stats () in
  let med f l = Stats.median (List.map f l) in
  let wall p = p.wall in
  let at_jobs jobs = if w.jobs > 1 then run_pass w ~rng ~jobs tl ops else pooled_pass w ~jobs tl ops in
  let j1 = ref [] and j2 = ref [] in
  for _ = 1 to 2 do
    j1 := at_jobs 1 :: !j1;
    j2 := at_jobs 2 :: !j2
  done;
  check w tl ops;
  let live = List.rev !live in
  let calib_v, flags = calib_values !calib in
  let programs = w.programs () in
  let cc_hits = let h0, _, _ = cc0 and h1, _, _ = cc1 in h1 - h0 in
  let cc_lookups = let h0, m0, _ = cc0 and h1, m1, _ = cc1 in h1 - h0 + m1 - m0 in
  ( Ledger.compile_chain programs
    @ Results.
        [
          ( "engine.live_mb_per_pass",
            num ((List.nth live ((2 * k) - 1) -. List.hd live) /. float_of_int ((2 * k) - 1)) );
        ]
    @ Ledger.paradigm_runs programs
    @ Ledger.jit_imc ()
    @ Results.
        [
          ("pool.cpu_util", num (med (fun p -> p.cpu /. p.wall) !j2));
          ("pool.speedup", num (med wall !j1 /. med wall !j2));
          calib_v;
          ("trace.overhead_pct", num (100.0 *. ((med wall !traced /. med wall !plain) -. 1.0)));
          ( "engine.compile_cache_hit_ratio",
            if cc_lookups = 0 then missing
            else num (float_of_int cc_hits /. float_of_int cc_lookups) );
        ]
    @ (if w.jobs > 1 then
         Results.
           [
             ("tune.candidates", num (med (fun p -> float_of_int p.runs) !plain));
             ("tune.candidates_per_s", num (med (fun p -> float_of_int p.runs /. p.wall) !plain));
           ]
       else []),
    tl.attempted,
    tl.failed,
    flags )
