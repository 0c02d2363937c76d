(* The structured tracing subsystem (infs_trace):
   - sink behaviour (null / JSONL / Chrome) and the canonical JSON
     serialization,
   - golden traces: small fixed (workload, paradigm) pairs must reproduce
     the committed JSONL byte-for-byte, so any silent change to an
     instrumented cost model fails loudly,
   - reconciliation: trace-derived per-category aggregates equal the
     engine's Report / Breakdown / Traffic numbers with 0.0 tolerance on
     every catalog workload,
   - a qcheck property: replaying the same (workload, paradigm) yields
     byte-identical JSONL and exactly reconciled cycle sums. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module Cat = Infs_workloads.Catalog

let run_traced ?(options = E.default_options) p w =
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer Trace.Jsonl buf in
  let r = E.run_exn ~options:{ options with E.trace } p w in
  Trace.close trace;
  (r, trace, Buffer.contents buf)

(* ---- serialization ---- *)

let test_json_float () =
  List.iter
    (fun (f, s) -> Alcotest.(check string) (string_of_float f) s (Trace.json_float f))
    [
      (0.0, "0"); (1.0, "1"); (-3.0, "-3"); (1310719.375, "1310719.375");
      (0.1, "0.1"); (infinity, "\"inf\""); (neg_infinity, "\"-inf\"");
    ];
  (* canonical form must round-trip exactly for any finite float *)
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0)) "round-trip" f (float_of_string (Trace.json_float f)))
    [ 1.0 /. 3.0; 2.0 ** 0.5; 1e-300; 33.9921875; 5036.0625; 1.192e-07 ]

let test_event_json () =
  Alcotest.(check string) "noc event"
    "{\"seq\":7,\"ev\":\"noc\",\"dir\":\"send\",\"cat\":\"data\",\"bytes\":64,\"hops\":5.25,\"packets\":1}"
    (Trace.event_to_json ~seq:7
       (Trace.Noc_packet
          { dir = Trace.Send; category = "data"; bytes = 64.0; hops = 5.25; packets = 1.0 }));
  Alcotest.(check string) "memo event with escaping"
    "{\"seq\":1,\"ev\":\"memo\",\"key\":\"a\\\"b\\\\c\",\"hit\":true}"
    (Trace.event_to_json ~seq:1 (Trace.Memo { key = "a\"b\\c"; hit = true }))

(* ---- sinks ---- *)

let test_null_sink () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Trace.emit Trace.null (Trace.Sync_barrier { cycles = 1.0 });
  Trace.emit Trace.null (Trace.Counter { name = "cycles.core"; value = 5.0 });
  Alcotest.(check int) "no events recorded" 0 (Trace.events_seen Trace.null);
  Alcotest.(check (float 0.0)) "no counters" 0.0 (Trace.counter Trace.null "cycles.core")

let test_jsonl_sink_summary () =
  let buf = Buffer.create 256 in
  let t = Trace.to_buffer Trace.Jsonl buf in
  Trace.emit t (Trace.Dram_burst { bytes = 8.0; cycles = 2.0 });
  Trace.close t;
  Trace.close t (* idempotent *);
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  Alcotest.(check int) "two lines" 2 (List.length lines);
  Alcotest.(check string) "summary line"
    "{\"ev\":\"summary\",\"counters\":{\"dram.bytes\":8}}"
    (List.nth lines 1);
  (* every event is counted, and the counters behind the summary
     aggregate every event *)
  let t = Trace.to_buffer Trace.Jsonl (Buffer.create 256) in
  for i = 1 to 10 do
    Trace.emit t (Trace.Sync_barrier { cycles = float_of_int i })
  done;
  Alcotest.(check int) "all events counted" 10 (Trace.events_seen t);
  Alcotest.(check (float 0.0)) "metrics still aggregate all" 10.0
    (Trace.counter t "sync.barriers")

let test_chrome_sink () =
  let buf = Buffer.create 256 in
  let t = Trace.to_buffer Trace.Chrome buf in
  Trace.emit t (Trace.Dram_burst { bytes = 8.0; cycles = 2.0 });
  Trace.emit t (Trace.Ttu_transpose { bytes = 8.0; cycles = 3.0 });
  Trace.emit t (Trace.Counter { name = "cycles.dram"; value = 5.0 });
  Trace.close t;
  let s = Buffer.contents buf in
  Alcotest.(check bool) "document shape" true
    (String.length s > 2
    && String.sub s 0 15 = "{\"traceEvents\":"
    && String.sub s (String.length s - 3) 3 = "]}\n");
  (* the second slice starts where the first ended: sequential clock *)
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "first slice at ts 0" true (contains "\"ts\":0,\"dur\":2");
  Alcotest.(check bool) "second slice at ts 2" true (contains "\"ts\":2,\"dur\":3");
  Alcotest.(check bool) "counter track carries cumulative value" true
    (contains "{\"cycles.dram\":5}")

(* ---- tiny JSONL field scanner (the emitter uses a fixed field order and
   no nested objects except the summary, so this stays trivial) ---- *)

let field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length line and pn = String.length pat in
  let rec find i =
    if i + pn > n then None
    else if String.sub line i pn = pat then Some (i + pn)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    if line.[start] = '"' then begin
      incr stop;
      while line.[!stop] <> '"' || line.[!stop - 1] = '\\' do
        incr stop
      done;
      Some (String.sub line (start + 1) (!stop - start - 1))
    end
    else begin
      while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
        incr stop
      done;
      Some (String.sub line start (!stop - start))
    end

let lines_of s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let known_events =
  [ "noc"; "local"; "sram"; "dram"; "ttu"; "jit"; "memo"; "decision"; "sync";
    "region"; "ctr"; "summary" ]

let check_schema jsonl =
  List.iteri
    (fun i line ->
      let ev =
        match field line "ev" with
        | Some e -> e
        | None -> Alcotest.failf "line %d: no ev field: %s" (i + 1) line
      in
      if not (List.mem ev known_events) then
        Alcotest.failf "line %d: unknown event %s" (i + 1) ev;
      if line.[0] <> '{' || line.[String.length line - 1] <> '}' then
        Alcotest.failf "line %d: not an object" (i + 1);
      if ev <> "summary" then begin
        match field line "seq" with
        | Some s when int_of_string s = i + 1 -> ()
        | Some s -> Alcotest.failf "line %d: seq %s out of order" (i + 1) s
        | None -> Alcotest.failf "line %d: no seq" (i + 1)
      end)
    (lines_of jsonl)

(* sum the ctr events of one category, in stream order — must equal the
   Breakdown field exactly (same floats, same accumulation order) *)
let ctr_sum jsonl name =
  List.fold_left
    (fun acc line ->
      match (field line "ev", field line "k") with
      | Some "ctr", Some k when k = name ->
        acc +. float_of_string (Option.get (field line "v"))
      | _ -> acc)
    0.0 (lines_of jsonl)

(* ---- golden traces ---- *)

let breakdown_pairs (r : R.t) =
  let b = r.R.breakdown in
  [
    ("dram", b.Breakdown.dram); ("jit", b.jit); ("move", b.move);
    ("compute", b.compute); ("final_reduce", b.final_reduce); ("mix", b.mix);
    ("near_mem", b.near_mem); ("core", b.core);
  ]

let check_reconciles ?(jsonl = "") (r : R.t) trace =
  List.iter
    (fun (name, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "cycles.%s reconciles" name)
        want
        (Trace.counter trace ("cycles." ^ name));
      if jsonl <> "" then
        Alcotest.(check (float 0.0))
          (Printf.sprintf "cycles.%s from jsonl" name)
          want
          (ctr_sum jsonl ("cycles." ^ name)))
    (breakdown_pairs r);
  List.iter
    (fun (cat, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "noc.bytes.%s reconciles" cat)
        want
        (Trace.counter trace ("noc.bytes." ^ cat)))
    r.R.noc_bytes;
  List.iter
    (fun (cat, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "noc.byte_hops.%s reconciles" cat)
        want
        (Trace.counter trace ("noc.byte_hops." ^ cat)))
    r.R.noc_byte_hops;
  List.iter
    (fun (ch, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "local.bytes.%s reconciles" ch)
        want
        (Trace.counter trace ("local.bytes." ^ ch)))
    r.R.local_bytes;
  Alcotest.(check (float 0.0)) "memo hits reconcile"
    (float_of_int r.R.jit.memo_hits)
    (Trace.counter trace "jit.memo_hits")

(* dune copies the golden deps next to the test executable; when run via
   `dune exec` from the repo root, fall back to the source tree *)
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

let check_golden name w p golden_path =
  let r, trace, jsonl = run_traced p w in
  check_schema jsonl;
  check_reconciles ~jsonl r trace;
  let want = read_file golden_path in
  if jsonl <> want then begin
    let got_lines = lines_of jsonl and want_lines = lines_of want in
    let rec first_diff i = function
      | g :: gs, w :: ws -> if g = w then first_diff (i + 1) (gs, ws) else (i, g, w)
      | g :: _, [] -> (i, g, "<end of golden>")
      | [], w :: _ -> (i, "<end of trace>", w)
      | [], [] -> (i, "<equal?>", "<equal?>")
    in
    let i, g, wl = first_diff 1 (got_lines, want_lines) in
    Alcotest.failf
      "%s: trace diverges from golden %s at line %d\n  got:    %s\n  golden: %s\n\
       If a cost-model change is intentional, regenerate with:\n\
      \  dune exec bin/infs_run.exe -- run -w <workload> -p <paradigm> --trace %s"
      name golden_path i g wl golden_path
  end

let test_golden_vec_add () =
  check_golden "vec_add@In-L3"
    (Infs_workloads.Micro.vec_add ~n:4_194_304)
    E.In_l3 (golden "golden/vec_add_in_l3.jsonl")

let test_golden_stencil1d () =
  check_golden "stencil1d@Inf-S"
    (Infs_workloads.Stencil.stencil1d ~iters:10 ~n:4_194_304)
    E.Inf_s (golden "golden/stencil1d_inf_s.jsonl")

(* ---- reconciliation across the whole catalog ---- *)

let reconcile_tests =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun p ->
          ( Printf.sprintf "reconcile: %s [%s]" name (E.paradigm_to_string p),
            `Quick,
            fun () ->
              let r, trace, jsonl = run_traced p w in
              check_schema jsonl;
              check_reconciles ~jsonl r trace ))
        E.all_paradigms)
    (Cat.all_variants (Cat.test_scale ()))

(* ---- determinism property ---- *)

let case_gen =
  QCheck.Gen.(
    let* kind = int_range 0 3 in
    let* p = oneofl E.all_paradigms in
    match kind with
    | 0 ->
      let+ n = oneofl [ 256; 1024; 4096; 16384 ] in
      (Printf.sprintf "vec_add/%d" n, `Vec_add n, p)
    | 1 ->
      let+ n = oneofl [ 256; 1024; 4096 ] in
      (Printf.sprintf "array_sum/%d" n, `Array_sum n, p)
    | 2 ->
      let* iters = int_range 1 3 in
      let+ n = oneofl [ 128; 512; 2048 ] in
      (Printf.sprintf "stencil1d/%d/%d" iters n, `Stencil1d (iters, n), p)
    | _ ->
      let+ n = oneofl [ 8; 16; 24 ] in
      (Printf.sprintf "mm_out/%d" n, `Mm_out n, p))

let build = function
  | `Vec_add n -> Infs_workloads.Micro.vec_add ~n
  | `Array_sum n -> Infs_workloads.Micro.array_sum ~n
  | `Stencil1d (iters, n) -> Infs_workloads.Stencil.stencil1d ~iters ~n
  | `Mm_out n -> Infs_workloads.Mm.mm_outer ~n

let prop_replay_deterministic =
  QCheck.Test.make ~count:30 ~name:"replaying (workload, paradigm) is byte-identical"
    (QCheck.make case_gen ~print:(fun (name, _, p) ->
         Printf.sprintf "%s [%s]" name (E.paradigm_to_string p)))
    (fun (_name, spec, p) ->
      let r1, trace1, jsonl1 = run_traced p (build spec) in
      let r2, _trace2, jsonl2 = run_traced p (build spec) in
      check_schema jsonl1;
      if jsonl1 <> jsonl2 then QCheck.Test.fail_report "replay differs";
      if r1.R.cycles <> r2.R.cycles then QCheck.Test.fail_report "cycles differ";
      (* per-category cycle sums from the trace equal Report.breakdown
         within 0.0 *)
      List.iter
        (fun (name, want) ->
          if ctr_sum jsonl1 ("cycles." ^ name) <> want then
            QCheck.Test.fail_reportf "cycles.%s does not reconcile" name)
        (breakdown_pairs r1);
      ignore trace1;
      true)

let suite =
  [
    ("json float canonical form", `Quick, test_json_float);
    ("event serialization", `Quick, test_event_json);
    ("null sink", `Quick, test_null_sink);
    ("jsonl summary line", `Quick, test_jsonl_sink_summary);
    ("chrome trace_event export", `Quick, test_chrome_sink);
    ("golden trace: vec_add @ In-L3", `Quick, test_golden_vec_add);
    ("golden trace: stencil1d @ Inf-S", `Quick, test_golden_stencil1d);
  ]
  @ reconcile_tests
  @ [ QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_replay_deterministic ]
