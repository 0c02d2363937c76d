(* The metrics subsystem (infs_metrics):
   - registry behaviour: null no-op, counter/gauge accumulation, log2
     histogram bucketing, snapshot ordering, JSON / Prometheus exposition,
   - reconciliation: metric series equal the engine's Report / Breakdown /
     Traffic numbers with 0.0 tolerance on every catalog workload,
   - live/replay agreement: replaying a JSONL trace through Trace_replay
     reproduces the live registry bit-for-bit (minus live-only series),
   - a golden bottleneck report: `analyze` output on a committed trace is
     byte-stable. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module Cat = Infs_workloads.Catalog

(* ---- registry unit tests ---- *)

let test_null () =
  let m = Metrics.null in
  Alcotest.(check bool) "disabled" false (Metrics.enabled m);
  Metrics.incr m "a" 1.0;
  Metrics.gauge_add m "b" 2.0;
  Metrics.observe m "c" 3.0;
  Metrics.apply m Metrics.default_geometry (Trace.Sync_barrier { cycles = 4.0 });
  Alcotest.(check int) "no calls" 0 (Metrics.calls m);
  Alcotest.(check (float 0.0)) "no value" 0.0 (Metrics.value m "a");
  Alcotest.(check int) "empty snapshot" 0 (List.length (Metrics.snapshot m))

let test_counters_and_sorting () =
  let m = Metrics.create () in
  Alcotest.(check bool) "enabled" true (Metrics.enabled m);
  Metrics.incr m ~labels:[ ("cat", "data") ] "noc.bytes" 64.0;
  Metrics.incr m ~labels:[ ("cat", "control") ] "noc.bytes" 8.0;
  Metrics.incr m ~labels:[ ("cat", "data") ] "noc.bytes" 32.0;
  Metrics.gauge_add m "gauge" (-1.5);
  Alcotest.(check (float 0.0)) "accumulates" 96.0
    (Metrics.value m ~labels:[ ("cat", "data") ] "noc.bytes");
  Alcotest.(check (float 0.0)) "gauge" (-1.5) (Metrics.value m "gauge");
  Alcotest.(check (float 0.0)) "absent series" 0.0 (Metrics.value m "nope");
  let names =
    List.map
      (fun (s : Metrics.series) ->
        s.Metrics.name
        ^ String.concat "" (List.map (fun (_, v) -> "/" ^ v) s.Metrics.labels))
      (Metrics.snapshot m)
  in
  Alcotest.(check (list string)) "sorted by (name, labels)"
    [ "gauge"; "noc.bytes/control"; "noc.bytes/data" ]
    names;
  Alcotest.(check int) "calls counted" 4 (Metrics.calls m)

let hist_of m name labels =
  match
    List.find_opt
      (fun (s : Metrics.series) ->
        s.Metrics.name = name && s.Metrics.labels = labels)
      (Metrics.snapshot m)
  with
  | Some { Metrics.sample = Metrics.Dist h; _ } -> Some h
  | _ -> None

let test_histogram_bucketing () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "h") [ 3.0; 4.0; 4.5; 0.0; -1.0; 0.75 ];
  match hist_of m "h" [] with
  | None -> Alcotest.fail "histogram series missing"
  | Some h ->
    Alcotest.(check int) "count includes zero bucket" 6 h.Metrics.count;
    Alcotest.(check (float 0.0)) "sum in call order" 11.25 h.Metrics.sum;
    (* buckets are (2^(e-1), 2^e]: 3.0 and 4.0 share ub 4, 4.5 -> 8,
       0.75 -> 1, non-positive samples -> the (0.0, n) zero bucket *)
    Alcotest.(check (list (pair (float 0.0) int)))
      "bucket placement"
      [ (0.0, 2); (1.0, 1); (4.0, 2); (8.0, 1) ]
      h.Metrics.buckets

(* NaN is ignored (as Stats.minimum/maximum ignore it); +inf is over range
   like any huge sample and lands in the top clamped bucket *)
let test_histogram_non_finite () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "h") [ nan; infinity; 0.75 ];
  match hist_of m "h" [] with
  | None -> Alcotest.fail "histogram series missing"
  | Some h ->
    Alcotest.(check int) "NaN is not counted" 2 h.Metrics.count;
    Alcotest.(check (list (pair (float 0.0) int)))
      "+inf in the top bucket"
      [ (1.0, 1); (Float.ldexp 1.0 128, 1) ]
      h.Metrics.buckets

let test_hist_quantile () =
  let m = Metrics.create () in
  for _ = 1 to 3 do Metrics.observe m "h" 2.0 done;
  Metrics.observe m "h" 100.0;
  match hist_of m "h" [] with
  | None -> Alcotest.fail "histogram series missing"
  | Some h ->
    let p50 = Metrics.hist_quantile h 0.5 in
    Alcotest.(check bool) "p50 inside the (1,2] bucket" true
      (p50 > 1.0 && p50 <= 2.0);
    let p99 = Metrics.hist_quantile h 0.99 in
    Alcotest.(check bool) "p99 in the top bucket" true (p99 > 64.0);
    Alcotest.(check (float 0.0)) "empty histogram" 0.0
      (Metrics.hist_quantile { Metrics.count = 0; sum = 0.0; buckets = [] } 0.5)

let test_json_exposition () =
  let m = Metrics.create () in
  Metrics.incr m ~labels:[ ("cat", "data") ] "noc.bytes" 64.0;
  Metrics.observe m "lat" 3.0;
  let j = Metrics.to_json (Metrics.snapshot m) in
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "exposition is not valid JSON: %s" e
  | Ok j2 ->
    Alcotest.(check (option string)) "schema tag" (Some "infs-metrics-1")
      (Option.bind (Json.member "schema" j2) Json.to_str);
    let series = Option.bind (Json.member "series" j2) Json.to_list in
    Alcotest.(check int) "two series" 2 (List.length (Option.get series))

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_prom_exposition () =
  let m = Metrics.create () in
  Metrics.incr m ~labels:[ ("cat", "data") ] "noc.bytes" 64.0;
  Metrics.observe m "imc.cmd_cycles" 3.0;
  Metrics.observe m "imc.cmd_cycles" 5.0;
  let s = Metrics.to_prom (Metrics.snapshot m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains s needle))
    [
      "# TYPE infs_noc_bytes counter";
      "infs_noc_bytes_total{cat=\"data\"} 64";
      "# TYPE infs_imc_cmd_cycles histogram";
      "infs_imc_cmd_cycles_bucket{le=\"4\"} 1";
      "infs_imc_cmd_cycles_bucket{le=\"+Inf\"} 2";
      "infs_imc_cmd_cycles_sum 8";
      "infs_imc_cmd_cycles_count 2";
    ]

(* ---- reconciliation against Report (0.0 tolerance) ---- *)

let run_metered ?(options = E.default_options) p w =
  let m = Metrics.create () in
  let r = E.run_exn ~options:{ options with E.metrics = m } p w in
  (r, m)

let breakdown_pairs (r : R.t) =
  let b = r.R.breakdown in
  [
    ("dram", b.Breakdown.dram); ("jit", b.jit); ("move", b.move);
    ("compute", b.compute); ("final_reduce", b.final_reduce); ("mix", b.mix);
    ("near_mem", b.near_mem); ("core", b.core);
  ]

let hist_sum m name labels =
  match hist_of m name labels with
  | Some h -> h.Metrics.sum
  | None -> 0.0

let check_reconciles (r : R.t) m =
  List.iter
    (fun (cat, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "noc.bytes{%s}" cat)
        want
        (Metrics.value m ~labels:[ ("cat", cat) ] "noc.bytes"))
    r.R.noc_bytes;
  List.iter
    (fun (cat, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "noc.byte_hops{%s}" cat)
        want
        (Metrics.value m ~labels:[ ("cat", cat) ] "noc.byte_hops"))
    r.R.noc_byte_hops;
  List.iter
    (fun (ch, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "local.bytes{%s}" ch)
        want
        (Metrics.value m ~labels:[ ("channel", ch) ] "local.bytes"))
    r.R.local_bytes;
  (* the cycles{cat} histogram accumulates the same charges in the same
     order as Breakdown, so the sums are bit-equal *)
  List.iter
    (fun (cat, want) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "cycles{%s} sum" cat)
        want
        (hist_sum m "cycles" [ ("cat", cat) ]))
    (breakdown_pairs r);
  Alcotest.(check (float 0.0)) "memo hits"
    (float_of_int r.R.jit.memo_hits)
    (Metrics.value m "jit.memo_hits");
  (* the per-link spread redistributes every packet's byte-hops, so the
     links sum back to the category totals (floating point: relative) *)
  let total_bh = List.fold_left (fun a (_, v) -> a +. v) 0.0 r.R.noc_byte_hops in
  let link_bh =
    List.fold_left
      (fun acc (s : Metrics.series) ->
        match s with
        | { Metrics.name = "noc.link.byte_hops"; sample = Metrics.Value v; _ } ->
          acc +. v
        | _ -> acc)
      0.0 (Metrics.snapshot m)
  in
  if Float.abs (link_bh -. total_bh) > 1e-6 *. Float.max 1.0 total_bh then
    Alcotest.failf "per-link byte-hops %.17g do not sum to total %.17g"
      link_bh total_bh

let reconcile_tests =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun p ->
          ( Printf.sprintf "reconcile: %s [%s]" name (E.paradigm_to_string p),
            `Quick,
            fun () ->
              let r, m = run_metered p w in
              check_reconciles r m ))
        E.all_paradigms)
    (Cat.all_variants (Cat.test_scale ()))

(* ---- live vs replay agreement ---- *)

(* Series only the live simulator can produce (no corresponding trace
   event, by design: the golden traces pin the event stream). *)
let live_only (s : Metrics.series) =
  String.length s.Metrics.name >= 5 && String.sub s.Metrics.name 0 5 = "near."

let series_sig (s : Metrics.series) =
  Json.to_string
    (Metrics.to_json [ s ])

let test_replay_agreement () =
  List.iter
    (fun (w, p) ->
      let buf = Buffer.create 4096 in
      let trace = Trace.to_buffer Trace.Jsonl buf in
      let m = Metrics.create () in
      let _r =
        E.run_exn ~options:{ E.default_options with E.trace; metrics = m } p w
      in
      Trace.close trace;
      let rp = Trace_replay.create () in
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.iter (fun line ->
             match Trace_replay.feed_line rp line with
             | Ok () -> ()
             | Error e -> Alcotest.failf "replay rejected %s: %s" line e);
      let live =
        List.filter (fun s -> not (live_only s)) (Metrics.snapshot m)
      in
      let replayed = Metrics.snapshot (Trace_replay.metrics rp) in
      Alcotest.(check int)
        (Printf.sprintf "%s [%s]: series count" w.Infinity_stream.Workload.wname
           (E.paradigm_to_string p))
        (List.length live) (List.length replayed);
      List.iter2
        (fun l r ->
          if series_sig l <> series_sig r then
            Alcotest.failf "series diverges\n  live:   %s\n  replay: %s"
              (series_sig l) (series_sig r))
        live replayed)
    [
      (Infs_workloads.Stencil.stencil1d ~iters:3 ~n:2048, E.Inf_s);
      (Infs_workloads.Micro.vec_add ~n:16384, E.In_l3);
      (Infs_workloads.Mm.mm_outer ~n:16, E.Near_l3);
      (Infs_workloads.Micro.array_sum ~n:4096, E.Base);
    ]

(* ---- replay parser: the inverse of Trace.event_to_json ---- *)

let gen_event =
  let open QCheck.Gen in
  let f =
    oneof
      [
        float;
        map Int64.float_of_bits ui64;
        map float_of_int small_signed_int;
        oneofl [ nan; infinity; neg_infinity; -0.0; 1e16; 0.1; Float.max_float; Float.min_float ];
      ]
  in
  let c = oneof [ printable; oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\000'; '\031'; '\127'; '\200' ] ] in
  let s = string_size ~gen:c (int_bound 12) in
  let i = oneof [ small_signed_int; int_range (-(1 lsl 52)) (1 lsl 52) ] in
  oneof
    [
      (let+ dir = oneofl [ Trace.Send; Trace.Deliver ]
       and+ category = s and+ bytes = f and+ hops = f and+ packets = f in
       Trace.Noc_packet { dir; category; bytes; hops; packets });
      (let+ channel = s and+ bytes = f in
       Trace.Local_move { channel; bytes });
      (let+ phase = oneofl [ Trace.Issue; Trace.Retire ]
       and+ kind = s and+ label = s and+ tiles = i and+ lanes = i and+ cycles = f in
       Trace.Sram_cmd { phase; kind; label; tiles; lanes; cycles });
      (let+ bytes = f and+ cycles = f in
       Trace.Dram_burst { bytes; cycles });
      (let+ bytes = f and+ cycles = f in
       Trace.Ttu_transpose { bytes; cycles });
      (let+ dir = oneofl [ Trace.Enter; Trace.Exit ]
       and+ region = s and+ commands = i and+ cycles = f in
       Trace.Jit_span { dir; region; commands; cycles });
      (let+ key = s and+ hit = bool in
       Trace.Memo { key; hit });
      (let+ kernel = s and+ target = s and+ core_cycles = f and+ imc_cycles = f and+ reason = s in
       Trace.Offload_decision { kernel; target; core_cycles; imc_cycles; reason });
      (let+ cycles = f in
       Trace.Sync_barrier { cycles });
      (let+ kernel = s and+ where = s and+ cycles = f in
       Trace.Region_exec { kernel; where; cycles });
      (let+ site = s and+ action = s and+ detail = s and+ cycles = f in
       Trace.Fault { site; action; detail; cycles });
      (let+ name = s and+ value = f in
       Trace.Counter { name; value });
      (let+ request = s and+ stage = s and+ us = f in
       Trace.Request_span { request; stage; us });
    ]

(* [compare], not [=]: nan <> nan *)
let prop_event_round_trip =
  QCheck.Test.make ~count:2000 ~name:"replay parser inverts event_to_json"
    (QCheck.make gen_event ~print:(Trace.event_to_json ~seq:1))
    (fun ev ->
      let line = Trace.event_to_json ~seq:1 ev in
      match Result.bind (Json.parse line) Trace_replay.event_of_json with
      | Ok (Some ev') when compare ev ev' = 0 -> true
      | Ok (Some ev') -> QCheck.Test.fail_reportf "parsed back as %s" (Trace.event_to_json ~seq:1 ev')
      | Ok None -> QCheck.Test.fail_report "skipped"
      | Error e -> QCheck.Test.fail_report e)

let test_replay_parser_errors () =
  let feed line = Trace_replay.feed_line (Trace_replay.create ()) line in
  let rejects what line needles =
    match feed line with
    | Ok () -> Alcotest.failf "%s: accepted %s" what line
    | Error e ->
      List.iter
        (fun n ->
          if not (contains e n) then Alcotest.failf "%s: error %S does not name %S" what e n)
        needles
  in
  rejects "missing field" {|{"seq":1,"ev":"dram","bytes":8}|} [ "dram"; "cycles" ];
  rejects "wrong type" {|{"seq":1,"ev":"dram","bytes":"8","cycles":2}|} [ "dram"; "bytes" ];
  rejects "not an integer" {|{"seq":1,"ev":"jit","dir":"exit","region":"r","commands":1.5,"cycles":2}|}
    [ "jit"; "commands" ];
  rejects "unknown dir"
    {|{"seq":1,"ev":"noc","dir":"sideways","cat":"data","bytes":8,"hops":1,"packets":1}|}
    [ "noc"; "dir"; "sideways" ];
  rejects "unknown phase"
    {|{"seq":1,"ev":"sram","phase":"done","kind":"k","label":"l","tiles":1,"lanes":1,"cycles":0}|}
    [ "sram"; "phase" ];
  rejects "missing seq" {|{"ev":"sync","cycles":1}|} [ "sync"; "seq" ];
  rejects "no ev" {|{"seq":1,"cycles":1}|} [ "ev" ];
  let accepts what line =
    match feed line with Ok () -> () | Error e -> Alcotest.failf "%s: rejected (%s)" what e
  in
  accepts "quoted non-finite" {|{"seq":1,"ev":"dram","bytes":"inf","cycles":"nan"}|};
  accepts "summary line" {|{"ev":"summary","counters":{"dram.bytes":8}}|};
  accepts "unknown kind" {|{"seq":1,"ev":"from-the-future","x":1}|};
  (* a truncated trace stops at the bad line instead of replaying it *)
  let rp = Trace_replay.create () in
  let tmp = Filename.temp_file "infs-replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "{\"seq\":1,\"ev\":\"sync\",\"cycles\":1}\n{\"seq\":2,\"ev\":\"dram\",\"bytes\":8}\n";
      close_out oc;
      let ic = open_in tmp in
      let r = Trace_replay.feed_channel rp ic in
      close_in ic;
      match r with
      | Ok n -> Alcotest.failf "truncated trace replayed %d events" n
      | Error e -> Alcotest.(check bool) ("error names line 2: " ^ e) true (contains e "line 2: dram event"))

(* ---- golden bottleneck report ---- *)

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

let test_golden_analyze () =
  let rp = Trace_replay.create () in
  let ic = open_in (golden "golden/stencil1d_inf_s.jsonl") in
  (match Trace_replay.feed_channel rp ic with
  | Ok _ -> close_in ic
  | Error e ->
    close_in ic;
    Alcotest.failf "replay failed: %s" e);
  let got = Trace_replay.report ~top:8 rp in
  let want = read_file (golden "golden/analyze_stencil1d_inf_s.txt") in
  if got <> want then begin
    let lines s = String.split_on_char '\n' s in
    let rec first_diff i = function
      | g :: gs, w :: ws -> if g = w then first_diff (i + 1) (gs, ws) else (i, g, w)
      | g :: _, [] -> (i, g, "<end of golden>")
      | [], w :: _ -> (i, "<end of report>", w)
      | [], [] -> (i, "<equal?>", "<equal?>")
    in
    let i, g, w = first_diff 1 (lines got, lines want) in
    Alcotest.failf
      "analyze report diverges from golden at line %d\n  got:    %s\n  golden: %s\n\
       If intentional, regenerate with:\n\
      \  dune exec bin/infs_run.exe -- analyze test/golden/stencil1d_inf_s.jsonl \
       -o test/golden/analyze_stencil1d_inf_s.txt"
      i g w
  end

let suite =
  [
    ("null registry", `Quick, test_null);
    ("counters + snapshot order", `Quick, test_counters_and_sorting);
    ("histogram bucketing", `Quick, test_histogram_bucketing);
    ("histogram: non-finite samples", `Quick, test_histogram_non_finite);
    ("histogram quantile", `Quick, test_hist_quantile);
    ("json exposition", `Quick, test_json_exposition);
    ("prometheus exposition", `Quick, test_prom_exposition);
    ("live = replay", `Quick, test_replay_agreement);
    ("replay parser: strict fields", `Quick, test_replay_parser_errors);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_event_round_trip;
    ("golden analyze report", `Quick, test_golden_analyze);
  ]
  @ reconcile_tests
