(* Fault injection & resilience (infs_fault + the engine's mitigation):

   - spec parsing / canonical printing and the injector's per-site
     deterministic streams,
   - the differential oracle: random (catalog workload, paradigm, machine
     config, fault seed) triples must still match the scalar Lang.Interp
     oracle after mitigation — retries and paradigm fallback may change
     WHERE a kernel executes, never WHAT it computes,
   - the no-perturbation guard: with faults disabled (the default) the
     report JSON is byte-identical to a faultless build, and an armed
     zero-rate spec perturbs nothing but the [faults] summary,
   - determinism: identical specs give byte-identical reports, and fault
     trace/metrics agree between live runs and offline replay,
   - pool resilience: [Pool.Degradation] maps to the structured
     [Degraded] outcome (never retried); ordinary crashes honor the
     retry-with-backoff budget,
   - goldens: one seeded fault scenario's JSONL trace and its analyze
     report are pinned byte-for-byte under golden/. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module W = Infinity_stream.Workload
module Cat = Infs_workloads.Catalog

let spec_of_string s =
  match Fault.parse s with
  | Ok sp -> sp
  | Error e -> Alcotest.failf "parse %S: %s" s e

(* ---- spec parsing ---- *)

let test_parse () =
  Alcotest.(check bool) "empty spec is none" true (Fault.is_none (spec_of_string ""));
  let sp = spec_of_string "seed=42,sram=1e-4,noc=0.25,jitter=3.5,dram=0.1,stall=512,watchdog=0.05,retries=4" in
  Alcotest.(check string) "canonical round-trip"
    "seed=42,sram=0.0001,noc=0.25,jitter=3.5,dram=0.1,stall=512,watchdog=0.05,retries=4"
    (Fault.to_string sp);
  Alcotest.(check bool) "seeded spec is armed" false (Fault.is_none sp);
  (match Fault.parse (Fault.to_string sp) with
  | Ok sp' -> Alcotest.(check bool) "to_string parses back" true (sp = sp')
  | Error e -> Alcotest.failf "round-trip rejected: %s" e);
  Alcotest.(check bool) "seed alone arms the model" false
    (Fault.is_none (spec_of_string "seed=7"));
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "sram=2"; "noc=-0.5"; "jitter=0.5"; "retries=-1"; "seed=x"; "bogus=1"; "sram";
      (* non-finite or out of the stated ranges *)
      "seed=1,stall=inf,dram=1"; "seed=1,noc=1,jitter=1e308"; "jitter=inf"; "jitter=nan";
      "sram=nan"; "stall=-inf"; "stall=8193"; "jitter=4.5"; "retries=5";
      "retries=100000000";
    ];
  (match Fault.parse "seed=1,jitter=1e308" with
  | Error e ->
    Alcotest.(check string) "the error names the key and the range"
      {|faults: jitter must be a finite number in [1, 4], got "1e308"|} e
  | Ok _ -> Alcotest.fail "accepted jitter=1e308")

let test_injector_streams () =
  let sp = spec_of_string "seed=5,sram=0.5,noc=0.5,dram=0.5,watchdog=0.5" in
  let seq inj =
    List.init 64 (fun i ->
        match i mod 4 with
        | 0 -> Fault.sram_flip inj ~exposure:32
        | 1 -> Fault.noc_factor inj > 1.0
        | 2 -> Fault.dram_stall_cycles inj > 0.0
        | _ -> Fault.watchdog_timeout inj)
  in
  let a = seq (Fault.create sp ~scope:"w|inf-s") in
  let b = seq (Fault.create sp ~scope:"w|inf-s") in
  Alcotest.(check (list bool)) "same scope, same stream" a b;
  (* one site's draw count must not shift another site's sequence *)
  let inj = Fault.create sp ~scope:"w|inf-s" in
  for _ = 1 to 1000 do
    ignore (Fault.noc_factor inj)
  done;
  let inj' = Fault.create sp ~scope:"w|inf-s" in
  let flips inj = List.init 32 (fun _ -> Fault.sram_flip inj ~exposure:32) in
  ignore (Fault.noc_factor inj');
  Alcotest.(check (list bool)) "sites are independent streams" (flips inj') (flips inj);
  Alcotest.(check bool) "zero exposure never flips" false
    (Fault.sram_flip (Fault.create sp ~scope:"x") ~exposure:0)

(* ---- differential oracle (qcheck) ---- *)

let oracle_workloads = Cat.all_variants (Cat.test_scale ())
let oracle_paradigms = [| E.Near_l3; E.In_l3; E.Inf_s; E.Inf_s_nojit |]

let oracle_cfgs =
  [| ("default", Machine_config.default); ("big-arrays", Machine_config.big_arrays) |]

(* rate templates spanning single-site and mixed-site injection *)
let oracle_templates =
  [|
    "sram=0.01,retries=1";
    "watchdog=0.5,retries=0";
    "noc=0.3,jitter=4,dram=0.3,stall=8192";
    "sram=0.005,noc=0.2,jitter=2,dram=0.2,watchdog=0.3,retries=2";
  |]

type oracle_case = { o_w : int; o_p : int; o_cfg : int; o_tmpl : int; o_seed : int }

let oracle_spec c =
  spec_of_string
    (Printf.sprintf "seed=%d,%s" c.o_seed oracle_templates.(c.o_tmpl))

(* the full replay line a failure prints *)
let oracle_print c =
  Printf.sprintf "workload=%s paradigm=%s cfg=%s --faults \"%s\""
    (fst (List.nth oracle_workloads c.o_w))
    (E.paradigm_to_string oracle_paradigms.(c.o_p))
    (fst oracle_cfgs.(c.o_cfg))
    (Fault.to_string (oracle_spec c))

let oracle_gen =
  QCheck.Gen.(
    map
      (fun (((w, p), (cfg, tmpl)), seed) ->
        { o_w = w; o_p = p; o_cfg = cfg; o_tmpl = tmpl; o_seed = seed })
      (pair
         (pair
            (pair (int_bound (List.length oracle_workloads - 1))
               (int_bound (Array.length oracle_paradigms - 1)))
            (pair (int_bound (Array.length oracle_cfgs - 1))
               (int_bound (Array.length oracle_templates - 1))))
         (int_bound 99_999)))

let oracle_arb = QCheck.make ~print:oracle_print oracle_gen

let prop_differential_oracle =
  QCheck.Test.make
    ~name:"mitigated runs match the scalar interpreter oracle" ~count:40
    oracle_arb
    (fun c ->
      let _, w = List.nth oracle_workloads c.o_w in
      let options =
        {
          E.default_options with
          functional = true;
          cfg = snd oracle_cfgs.(c.o_cfg);
          faults = oracle_spec c;
        }
      in
      match E.run ~options oracle_paradigms.(c.o_p) w with
      | Error e -> QCheck.Test.fail_reportf "engine error (crash): %s" e
      | Ok r -> (
        match (r.R.correctness, r.R.faults) with
        | `Skipped, _ -> QCheck.Test.fail_report "correctness check skipped"
        | _, None -> QCheck.Test.fail_report "armed run lost its fault summary"
        | `Checked err, Some f ->
          if err > 1e-3 then
            QCheck.Test.fail_reportf
              "silent wrong answer: max error %.3e (injected=%d retries=%d fallbacks=%d)"
              err
              (List.fold_left (fun a (_, n) -> a + n) 0 f.R.injected)
              f.R.retries f.R.fallbacks;
          let injected = List.fold_left (fun a (_, n) -> a + n) 0 f.R.injected in
          if f.R.degraded <> (injected > 0) then
            QCheck.Test.fail_reportf "degraded=%b but injected=%d" f.R.degraded
              injected;
          if f.R.wasted_cycles < 0.0 then
            QCheck.Test.fail_report "negative wasted cycles";
          true))

(* ---- no-perturbation guard ---- *)

let guard_paradigms = [ E.Base; E.Near_l3; E.In_l3; E.Inf_s ]

let test_no_perturbation () =
  let zero_rate = spec_of_string "seed=7" in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun p ->
          let r0 = E.run_exn p w in
          let j0 = Json.to_string (R.to_json r0) in
          (match r0.R.faults with
          | None -> ()
          | Some _ -> Alcotest.failf "%s: disabled run grew a fault summary" name);
          let r1 =
            E.run_exn ~options:{ E.default_options with E.faults = zero_rate } p w
          in
          (match r1.R.faults with
          | None -> Alcotest.failf "%s: armed run lost its fault summary" name
          | Some f ->
            Alcotest.(check int)
              (Printf.sprintf "%s [%s]: zero rates inject nothing" name
                 (E.paradigm_to_string p))
              0
              (List.fold_left (fun a (_, n) -> a + n) 0 f.R.injected);
            Alcotest.(check bool) "not degraded" false f.R.degraded);
          (* stripping the summary must recover the disabled run's bytes:
             zero-rate hooks draw but never perturb a single cycle *)
          Alcotest.(check string)
            (Printf.sprintf "%s [%s]: armed-zero-rate report is byte-identical"
               name (E.paradigm_to_string p))
            j0
            (Json.to_string (R.to_json { r1 with R.faults = None })))
        guard_paradigms)
    (Cat.all_variants (Cat.test_scale ()))

(* ---- determinism ---- *)

let det_spec = "seed=3,sram=0.002,noc=0.2,jitter=3,dram=0.3,stall=4096,watchdog=0.2,retries=1"

let test_determinism () =
  let spec = spec_of_string det_spec in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun p ->
          let go () =
            Json.to_string
              (R.to_json
                 (E.run_exn ~options:{ E.default_options with E.faults = spec } p w))
          in
          Alcotest.(check string)
            (Printf.sprintf "%s [%s]: identical seed, identical report" name
               (E.paradigm_to_string p))
            (go ()) (go ()))
        [ E.Near_l3; E.In_l3; E.Inf_s ])
    [
      ("stencil1d", Infs_workloads.Stencil.stencil1d ~iters:3 ~n:2048);
      ("mm/out", Infs_workloads.Mm.mm_outer ~n:16);
    ]

(* ---- live = replay for fault series ---- *)

let fault_series (s : Metrics.series) =
  s.Metrics.name = "fault" || s.Metrics.name = "fault.cycles"

let test_fault_replay_agreement () =
  (* hot rates: the small scenario passes few draw sites, so make sure
     something actually injects on every site class *)
  let spec =
    spec_of_string
      "seed=3,sram=0.05,noc=0.5,jitter=3,dram=0.9,stall=4096,watchdog=0.5,retries=1"
  in
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer Trace.Jsonl buf in
  let m = Metrics.create () in
  let r =
    E.run_exn
      ~options:{ E.default_options with E.trace; metrics = m; faults = spec }
      E.Inf_s
      (Infs_workloads.Stencil.stencil1d ~iters:3 ~n:2048)
  in
  Trace.close trace;
  (match r.R.faults with
  | Some f when List.fold_left (fun a (_, n) -> a + n) 0 f.R.injected > 0 -> ()
  | _ -> Alcotest.fail "scenario was expected to inject faults");
  let rp = Trace_replay.create () in
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.iter (fun line ->
         match Trace_replay.feed_line rp line with
         | Ok () -> ()
         | Error e -> Alcotest.failf "replay rejected %s: %s" line e);
  let sig_of ss =
    Json.to_string (Metrics.to_json (List.filter fault_series ss))
  in
  let live = sig_of (Metrics.snapshot m) in
  Alcotest.(check bool) "live run recorded fault series" true
    (live <> "{}" && live <> "[]");
  Alcotest.(check string) "fault series agree live vs replay" live
    (sig_of (Metrics.snapshot (Trace_replay.metrics rp)))

(* ---- pool resilience ---- *)

let test_pool_degraded () =
  let t = Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown t)
    (fun () ->
      let attempts = Atomic.make 0 in
      let tk =
        Pool.submit t ~retries:5 (fun () ->
            Atomic.incr attempts;
            raise (Pool.Degradation "sram fallback budget exhausted"))
      in
      (match Pool.await tk with
      | Error (Pool.Degraded msg) ->
        Alcotest.(check string) "degradation message"
          "sram fallback budget exhausted" msg
      | o ->
        Alcotest.failf "expected Degraded, got %s"
          (match o with
          | Ok _ -> "Ok"
          | Error e -> Pool.error_to_string e));
      Alcotest.(check int) "Degradation is never retried" 1 (Atomic.get attempts);
      Alcotest.(check string) "error_to_string"
        "degraded: boom"
        (Pool.error_to_string (Pool.Degraded "boom")))

let test_pool_retry_backoff () =
  let t = Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown t)
    (fun () ->
      (* transient crash: fails twice, then succeeds within the budget *)
      let attempts = Atomic.make 0 in
      let tk =
        Pool.submit t ~retries:3 (fun () ->
            if Atomic.fetch_and_add attempts 1 < 2 then failwith "transient";
            "ok")
      in
      (match Pool.await tk with
      | Ok s -> Alcotest.(check string) "recovered after retries" "ok" s
      | Error e -> Alcotest.failf "expected recovery, got %s" (Pool.error_to_string e));
      Alcotest.(check int) "two failures + one success" 3 (Atomic.get attempts);
      (* budget exhausted: the last exception surfaces as Failed *)
      let tk =
        Pool.submit t ~retries:2 (fun () -> failwith "permanent")
      in
      match Pool.await tk with
      | Error (Pool.Failed msg) ->
        Alcotest.(check bool) "carries the exception" true
          (String.length msg > 0)
      | o ->
        Alcotest.failf "expected Failed, got %s"
          (match o with Ok _ -> "Ok" | Error e -> Pool.error_to_string e))

(* ---- goldens: seeded scenario pinned byte-for-byte ---- *)

let golden_spec = "seed=3,sram=2e-4,noc=0.3,jitter=3,dram=0.5,stall=4096,watchdog=0.3,retries=1"

let golden path =
  let candidates =
    [
      Filename.concat (Filename.dirname Sys.executable_name) path;
      path;
      Filename.concat "test" path;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let first_diff got want =
  let lines s = String.split_on_char '\n' s in
  let rec go i = function
    | g :: gs, w :: ws -> if g = w then go (i + 1) (gs, ws) else (i, g, w)
    | g :: _, [] -> (i, g, "<end of golden>")
    | [], w :: _ -> (i, "<end of output>", w)
    | [], [] -> (i, "<equal?>", "<equal?>")
  in
  go 1 (lines got, lines want)

let test_golden_fault_trace () =
  let buf = Buffer.create 65536 in
  let trace = Trace.to_buffer Trace.Jsonl buf in
  let options =
    { E.default_options with E.trace; faults = spec_of_string golden_spec }
  in
  ignore
    (E.run_exn ~options E.Inf_s
       (Infs_workloads.Stencil.stencil1d ~iters:10 ~n:4_194_304));
  Trace.close trace;
  let got = Buffer.contents buf in
  let want = read_file (golden "golden/fault_stencil1d_inf_s.jsonl") in
  if got <> want then begin
    let i, g, w = first_diff got want in
    Alcotest.failf
      "fault trace diverges from golden at line %d\n  got:    %s\n  golden: %s\n\
       If a fault-model change is intentional, regenerate with:\n\
      \  dune exec bin/infs_run.exe -- run -w stencil1d -p inf-s \
       --faults \"%s\" --trace test/golden/fault_stencil1d_inf_s.jsonl"
      i g w golden_spec
  end

let test_golden_fault_analyze () =
  let rp = Trace_replay.create () in
  let ic = open_in (golden "golden/fault_stencil1d_inf_s.jsonl") in
  (match Trace_replay.feed_channel rp ic with
  | Ok _ -> close_in ic
  | Error e ->
    close_in ic;
    Alcotest.failf "replay failed: %s" e);
  let got = Trace_replay.report ~top:8 rp in
  let want = read_file (golden "golden/analyze_fault_stencil1d_inf_s.txt") in
  if got <> want then begin
    let i, g, w = first_diff got want in
    Alcotest.failf
      "analyze report diverges from golden at line %d\n  got:    %s\n  golden: %s\n\
       If intentional, regenerate with:\n\
      \  dune exec bin/infs_run.exe -- analyze \
       test/golden/fault_stencil1d_inf_s.jsonl -o \
       test/golden/analyze_fault_stencil1d_inf_s.txt"
      i g w
  end

(* Every key at the top of its range still yields finite cycles: faults
   on every attempt, the most retries, the longest stall, the largest
   slowdown. *)
let test_range_maxima_finite () =
  let sp = spec_of_string "seed=1,sram=1,noc=1,jitter=4,dram=1,stall=8192,watchdog=1,retries=4" in
  List.iter
    (fun (name, w) ->
      List.iter
        (fun p ->
          let r =
            E.run_exn ~options:{ E.default_options with faults = sp; share_compile = true } p w
          in
          if not (Float.is_finite r.R.cycles) then
            Alcotest.failf "%s [%s]: cycles %h" name (E.paradigm_to_string p) r.R.cycles)
        [ E.Near_l3; E.In_l3; E.Inf_s ])
    (Cat.all_variants (Cat.test_scale ()))

let suite =
  [
    ("spec parse / canonical print", `Quick, test_parse);
    ("injector per-site streams", `Quick, test_injector_streams);
    ("no-perturbation guard (catalog)", `Quick, test_no_perturbation);
    ("seeded determinism", `Quick, test_determinism);
    ("fault series: live = replay", `Quick, test_fault_replay_agreement);
    ("pool: structured Degraded outcome", `Quick, test_pool_degraded);
    ("pool: retry with backoff", `Quick, test_pool_retry_backoff);
    ("golden fault trace", `Quick, test_golden_fault_trace);
    ("golden fault analyze report", `Quick, test_golden_fault_analyze);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_differential_oracle;
    ("range maxima keep cycles finite", `Quick, test_range_maxima_finite);
  ]
