(* The profiling + perf-trending subsystem (infs_prof):
   - registry behaviour: null no-ops, span nesting self/total accounting,
     record_path, merge order irrelevance, folded-stack rendering,
   - golden profile report: a fixed (workload, paradigm) pair must
     reproduce the committed normalized report byte-for-byte — span call
     counts are part of the simulator's deterministic contract; only the
     time columns are normalized away,
   - reconciliation: span call counts equal trace/metrics event counts
     (core/near/imc vs Region_exec per target, jit vs memo lookups,
     decide vs Offload_decision) on every catalog workload x paradigm,
   - serve: per-request stage spans and Request_span trace events agree
     with each other and with the request count,
   - trend: the committed three-snapshot fixture renders the committed
     markdown page exactly, flags the planted regression,
   - bench-bisect: slice minimization on hand-made snapshots, including
     the nothing-moved and everything-moved edge cases,
   - bench-diff: a drop or a vanished entry fails the gate like a rise;
     identical files and a new entry pass. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module Cat = Infs_workloads.Catalog

let path_count prof path =
  List.fold_left
    (fun acc (e : Prof.entry) -> if e.path = path then acc + e.count else acc)
    0 (Prof.rows prof)

(* ---- registry ---- *)

let test_null_registry () =
  Alcotest.(check bool) "null disabled" false (Prof.enabled Prof.null);
  Prof.enter Prof.null "a";
  Prof.record Prof.null "b" ~ns:5.0;
  Prof.record_path Prof.null "c;d" ~ns:5.0 ();
  Prof.leave Prof.null;
  Alcotest.(check int) "no calls counted" 0 (Prof.calls Prof.null);
  Alcotest.(check int) "no rows" 0 (List.length (Prof.rows Prof.null));
  Alcotest.(check string) "empty folded" "" (Prof.to_folded Prof.null)

let test_span_nesting () =
  let p = Prof.create () in
  Prof.span p "outer" (fun () ->
      Prof.span p "inner" (fun () -> ());
      Prof.record p "leaf" ~ns:0.0);
  Prof.span p "outer" (fun () -> ());
  let paths = List.map (fun (e : Prof.entry) -> (e.path, e.count)) (Prof.rows p) in
  Alcotest.(check (list (pair string int)))
    "paths sorted, counts accumulated"
    [ ("outer", 2); ("outer;inner", 1); ("outer;leaf", 1) ]
    paths;
  let outer = List.find (fun (e : Prof.entry) -> e.path = "outer") (Prof.rows p) in
  Alcotest.(check bool) "self excludes nested time" true
    (outer.self_ns <= outer.total_ns);
  (* an unbalanced leave must not underflow the stack *)
  Prof.leave p;
  Prof.span p "outer" (fun () -> ());
  Alcotest.(check int) "recovered from unbalanced leave" 3 (path_count p "outer")

let test_span_exception_safe () =
  let p = Prof.create () in
  (try Prof.span p "boom" (fun () -> failwith "x") with Failure _ -> ());
  Prof.span p "after" (fun () -> ());
  Alcotest.(check int) "span closed on exception" 1 (path_count p "boom");
  Alcotest.(check string) "stack unwound: sibling not nested" "after"
    (let e = List.find (fun (e : Prof.entry) -> e.count = 1 && e.path <> "boom")
               (Prof.rows p) in
     e.path)

let test_record_path_and_merge () =
  let a = Prof.create () and b = Prof.create () in
  Prof.record_path a "x;y" ~count:3 ~ns:30.0 ();
  Prof.record_path b "x;y" ~count:2 ~ns:20.0 ();
  Prof.record_path b "z" ~ns:1.0 ();
  let ab = Prof.create () and ba = Prof.create () in
  Prof.merge_into ~dst:ab a;
  Prof.merge_into ~dst:ab b;
  Prof.merge_into ~dst:ba b;
  Prof.merge_into ~dst:ba a;
  Alcotest.(check string) "merge order irrelevant"
    (Prof.report ab) (Prof.report ba);
  Alcotest.(check int) "counts sum" 5 (path_count ab "x;y");
  Alcotest.(check int) "calls folded too" (Prof.calls ab) (Prof.calls ba)

let test_folded_format () =
  let p = Prof.create () in
  Prof.record_path p "a;b" ~ns:42.0 ();
  Prof.record_path p "a" ~ns:7.0 ();
  Alcotest.(check string) "folded lines: path space self_ns"
    "a 7\na;b 42\n" (Prof.to_folded p)

(* ---- golden profile report ---- *)

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

let run_profiled ?(options = E.default_options) p w =
  let prof = Prof.create () in
  let r = E.run_exn ~options:{ options with E.prof } p w in
  (r, prof)

let test_golden_report () =
  let _, prof =
    run_profiled E.Inf_s (Infs_workloads.Stencil.stencil1d ~iters:10 ~n:4_194_304)
  in
  let got = Prof.report ~normalize:true prof in
  let path = golden "golden/prof_stencil1d_inf_s.txt" in
  let want = read_file path in
  if got <> want then
    Alcotest.failf
      "normalized profile diverges from golden %s\n--- got ---\n%s--- end ---\n\
       If an instrumentation change is intentional, regenerate the golden \
       from this output."
      path got;
  (* the JSON rendering carries the same rows under the same schema *)
  match Prof.to_json ~normalize:true prof with
  | Json.Obj kvs ->
    Alcotest.(check bool) "schema tag" true
      (List.assoc_opt "schema" kvs = Some (Json.Str "infs-prof-1"));
    (match List.assoc_opt "spans" kvs with
    | Some (Json.Arr spans) ->
      Alcotest.(check int) "one JSON span per report row"
        (List.length (Prof.rows prof))
        (List.length spans)
    | _ -> Alcotest.fail "no spans array")
  | _ -> Alcotest.fail "profile JSON is not an object"

(* ---- reconciliation with trace/metrics ---- *)

let lines_of s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let contains line needle =
  let n = String.length needle and m = String.length line in
  let rec go i = i + n <= m && (String.sub line i n = needle || go (i + 1)) in
  go 0

let count_events jsonl ev =
  List.length
    (List.filter
       (fun l -> contains l (Printf.sprintf "\"ev\":%S" ev))
       (lines_of jsonl))

let check_prof_reconciles name p w =
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer Trace.Jsonl buf in
  let prof = Prof.create () in
  let _r =
    E.run_exn ~options:{ E.default_options with E.trace; prof } p w
  in
  Trace.close trace;
  let jsonl = Buffer.contents buf in
  let check what want got =
    Alcotest.(check int) (Printf.sprintf "%s: %s" name what) want got
  in
  (* each execution-path span equals the Region_exec count for its target
     (the metrics regions.<where> counters derive from the same events) *)
  check "core spans = regions.in-core"
    (int_of_float (Trace.counter trace "regions.in-core"))
    (Prof.count_leaf prof "core");
  check "near spans = regions.near-L3"
    (int_of_float (Trace.counter trace "regions.near-L3"))
    (Prof.count_leaf prof "near");
  check "imc spans = regions.in-L3"
    (int_of_float (Trace.counter trace "regions.in-L3"))
    (Prof.count_leaf prof "imc");
  (* one jit span per memoized lookup, hits included *)
  check "jit spans = memo lookups"
    (int_of_float
       (Trace.counter trace "jit.memo_hits"
       +. Trace.counter trace "jit.memo_misses"))
    (Prof.count_leaf prof "jit");
  (* the engine is the sole Offload_decision emitter in a fault-free run *)
  check "decide spans = decision events" (count_events jsonl "decision")
    (Prof.count_leaf prof "decide");
  (* replaying yields the same counts (times vary, counts never) *)
  let prof2 = Prof.create () in
  ignore (E.run_exn ~options:{ E.default_options with E.prof = prof2 } p w);
  Alcotest.(check string)
    (Printf.sprintf "%s: counts replay-deterministic" name)
    (Prof.report ~normalize:true prof)
    (Prof.report ~normalize:true prof2)

let reconcile_tests =
  List.concat_map
    (fun (name, w) ->
      List.map
        (fun p ->
          ( Printf.sprintf "reconcile: %s [%s]" name (E.paradigm_to_string p),
            `Quick,
            fun () ->
              check_prof_reconciles
                (Printf.sprintf "%s [%s]" name (E.paradigm_to_string p))
                p w ))
        E.all_paradigms)
    (Cat.all_variants (Cat.test_scale ()))

(* ---- serve: request spans vs Request_span events ---- *)

let test_serve_request_spans () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "infs-prof-%d.sock" (Unix.getpid ()))
  in
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer Trace.Jsonl buf in
  let prof = Prof.create () in
  let cfg =
    { (Serve.default_config ~socket_path:path) with Serve.trace; prof }
  in
  let sent = 5 in
  let st =
    match Serve.start cfg (Serve.local ~jobs:2 (fun j -> Ok j)) with
    | Error e -> Alcotest.fail e
    | Ok t ->
      Fun.protect
        ~finally:(fun () ->
          try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
        (fun () ->
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          let ic = Unix.in_channel_of_descr fd
          and oc = Unix.out_channel_of_descr fd in
          for i = 0 to sent - 1 do
            output_string oc (Printf.sprintf "{\"id\": %d}\n" i)
          done;
          flush oc;
          for _ = 1 to sent do
            ignore (input_line ic)
          done;
          Unix.close fd;
          Serve.request_stop t;
          Serve.wait t)
  in
  Trace.close trace;
  Alcotest.(check int) "all requests ok" sent st.Serve.ok;
  (* every completed request contributes exactly one event per stage *)
  List.iter
    (fun stage ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "trace counter serve.spans.%s" stage)
        (float_of_int sent)
        (Trace.counter trace ("serve.spans." ^ stage));
      Alcotest.(check int)
        (Printf.sprintf "prof spans serve;request;%s" stage)
        sent
        (path_count prof ("serve;request;" ^ stage)))
    [ "queue_wait"; "run"; "write_back" ];
  (* the drain folded per-worker pool rows into the same registry *)
  Alcotest.(check int) "pool busy rows cover every job" sent
    (Prof.count_leaf prof "busy")

(* ---- trend ---- *)

let trend_fixtures = [ "trend_a.json"; "trend_b.json"; "trend_c.json" ]

(* mirrors `infs_run trend`: filename order, re-ordered by meta.timestamp
   when every snapshot carries one; label = 12-char commit prefix *)
let load_trend_snapshots () =
  let snaps =
    List.map
      (fun f ->
        match Bench_file.of_string (read_file (golden ("golden/" ^ f))) with
        | Ok s -> (f, s)
        | Error e -> Alcotest.failf "%s: %s" f e)
      trend_fixtures
  in
  let stamped =
    List.map (fun (f, s) -> (f, s, Bench_file.timestamp s)) snaps
  in
  let ordered =
    if List.for_all (fun (_, _, ts) -> ts <> None) stamped then
      List.stable_sort
        (fun (_, _, a) (_, _, b) -> compare a b)
        stamped
    else stamped
  in
  List.map
    (fun (f, s, _) ->
      let label =
        match Bench_file.commit s with
        | Some c when String.length c > 12 -> String.sub c 0 12
        | Some c -> c
        | None -> Filename.remove_extension f
      in
      (label, s))
    ordered

let test_trend_golden_page () =
  let t = Trend.build (load_trend_snapshots ()) in
  let got = Trend.to_markdown t in
  let path = golden "golden/trend.md" in
  let want = read_file path in
  if got <> want then
    Alcotest.failf
      "trend page diverges from golden %s\n--- got ---\n%s--- end ---" path got;
  (* the fixtures plant exactly one regression beyond the 5%% default *)
  (match Trend.regressions t with
  | [ (key, d) ] ->
    Alcotest.(check string) "planted regression flagged" "stencil1d [inf-s]" key;
    Alcotest.(check bool) "delta beyond threshold" true (d > 5.0)
  | rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs));
  (* the HTML page carries the same rows and flags *)
  let html = Trend.to_html t in
  Alcotest.(check bool) "html flags the regression" true
    (contains html "class=\"regression\"");
  Alcotest.(check bool) "html is a standalone document" true
    (String.length html > 15 && String.sub html 0 15 = "<!DOCTYPE html>")

let test_trend_missing_cells () =
  let parse s = Result.get_ok (Bench_file.of_string s) in
  let s1 =
    parse
      {|{"schema":"infs-bench-1","suite":"t","results":[
         {"workload":"a","paradigm":"p","tag":"","cycles":100}]}|}
  and s2 =
    parse
      {|{"schema":"infs-bench-1","suite":"t","results":[
         {"workload":"a","paradigm":"p","tag":"","cycles":100},
         {"workload":"b","paradigm":"p","tag":"","cycles":5}]}|}
  in
  let t = Trend.build [ ("one", s1); ("two", s2) ] in
  let row key = List.find (fun (r : Trend.row) -> r.key = key) t.Trend.rows in
  Alcotest.(check string) "absent snapshot renders a dot" "·"
    (String.sub (row "b [p]").Trend.spark 0 (String.length "·"));
  Alcotest.(check (option (float 0.0))) "single-point key has no delta" None
    (row "b [p]").Trend.delta_pct;
  Alcotest.(check (option (float 0.0))) "flat series has zero delta" (Some 0.0)
    (row "a [p]").Trend.delta_pct

(* ---- bench-bisect ---- *)

let bench_of ~suite cells =
  let results =
    List.map
      (fun (w, p, c) ->
        Printf.sprintf
          {|{"workload":%S,"paradigm":%S,"tag":"","cycles":%g}|} w p c)
      cells
  in
  Result.get_ok
    (Bench_file.of_string
       (Printf.sprintf
          {|{"schema":"infs-bench-1","suite":%S,"results":[%s]}|} suite
          (String.concat "," results)))

let grid v =
  [ ("mm", "base", v 0); ("mm", "inf-s", v 1); ("stencil", "base", v 2);
    ("stencil", "inf-s", v 3) ]

let test_bisect_no_regression () =
  let old_ = bench_of ~suite:"t" (grid (fun i -> 100.0 +. float_of_int i)) in
  (* jitter below the threshold must not count as movement *)
  let new_ =
    bench_of ~suite:"t" (grid (fun i -> (100.0 +. float_of_int i) *. 1.001))
  in
  let groups, compared, moved = Bisect.minimize ~old_ ~new_ () in
  Alcotest.(check int) "4 cells compared" 4 compared;
  Alcotest.(check int) "nothing moved" 0 moved;
  Alcotest.(check int) "no groups" 0 (List.length groups)

let test_bisect_everything_moved () =
  let old_ = bench_of ~suite:"t" (grid (fun _ -> 100.0)) in
  let new_ = bench_of ~suite:"t" (grid (fun _ -> 150.0)) in
  let groups, compared, moved = Bisect.minimize ~old_ ~new_ () in
  Alcotest.(check int) "4 compared" 4 compared;
  Alcotest.(check int) "4 moved" 4 moved;
  match groups with
  | [ g ] ->
    Alcotest.(check string) "one root group" "* [*]" g.Bisect.label;
    Alcotest.(check int) "absorbing every cell" 4 (List.length g.Bisect.cells);
    Alcotest.(check (float 1e-9)) "impact sums |new-old|" 200.0 g.Bisect.impact
  | gs -> Alcotest.failf "expected the root group, got %d groups" (List.length gs)

let test_bisect_workload_slice () =
  let old_ = bench_of ~suite:"t" (grid (fun _ -> 100.0)) in
  let new_ =
    bench_of ~suite:"t"
      [ ("mm", "base", 150.0); ("mm", "inf-s", 140.0); ("stencil", "base", 100.0);
        ("stencil", "inf-s", 100.0) ]
  in
  let groups, _, moved = Bisect.minimize ~old_ ~new_ () in
  Alcotest.(check int) "2 moved" 2 moved;
  (match groups with
  | [ g ] ->
    Alcotest.(check string) "whole-workload slice named" "mm [*]" g.Bisect.label;
    Alcotest.(check string) "worst cell is the biggest mover" "mm [base]"
      g.Bisect.worst.Bisect.key
  | gs -> Alcotest.failf "expected one slice group, got %d" (List.length gs));
  (* JSON shape of the same result *)
  match Bisect.to_json (groups, 4, moved) with
  | Json.Obj kvs ->
    Alcotest.(check bool) "schema tag" true
      (List.assoc_opt "schema" kvs = Some (Json.Str "infs-bisect-1"))
  | _ -> Alcotest.fail "bisect JSON is not an object"

let test_bisect_single_cell_and_sign () =
  let old_ = bench_of ~suite:"t" (grid (fun _ -> 100.0)) in
  (* a diagonal pair — no complete slice — one regression and one larger
     improvement: impact ranks the improvement first, |delta| is what
     moves cycles *)
  let new_ =
    bench_of ~suite:"t"
      [ ("mm", "base", 110.0); ("mm", "inf-s", 100.0); ("stencil", "base", 100.0);
        ("stencil", "inf-s", 50.0) ]
  in
  let groups, _, moved = Bisect.minimize ~old_ ~new_ () in
  Alcotest.(check int) "2 moved" 2 moved;
  Alcotest.(check (list string)) "cells named, impact-descending"
    [ "stencil [inf-s]"; "mm [base]" ]
    (List.map (fun g -> g.Bisect.label) groups);
  Alcotest.(check bool) "improvement has negative delta" true
    ((List.hd groups).Bisect.worst.Bisect.delta_pct < 0.0)

let test_bisect_disjoint_keys_ignored () =
  let old_ = bench_of ~suite:"t" [ ("mm", "base", 100.0) ] in
  let new_ = bench_of ~suite:"t" [ ("qr", "base", 100.0) ] in
  let groups, compared, moved = Bisect.minimize ~old_ ~new_ () in
  Alcotest.(check int) "no common cells" 0 compared;
  Alcotest.(check int) "nothing moved" 0 moved;
  Alcotest.(check int) "no groups" 0 (List.length groups)

(* ---- bench-diff: a two-sided gate ---- *)

let diff0 old_ new_ =
  let old_ = bench_of ~suite:"t" old_ and new_ = bench_of ~suite:"t" new_ in
  Bench_diff.diff ~warn:0.0 ~max_regress:0.0 ~old_ ~new_

let status_of key d =
  List.find_map
    (fun r -> if r.Bench_diff.key = key then Some r.Bench_diff.status else None)
    d.Bench_diff.rows

let test_bench_diff_fails_on_drop_and_removal () =
  let base = grid (fun i -> 1000.0 +. float_of_int i) in
  let drop = diff0 base (grid (fun i -> if i = 2 then 1001.0 else 1000.0 +. float_of_int i)) in
  Alcotest.(check bool) "a one-cycle drop at 0% fails" true (Bench_diff.failed drop);
  Alcotest.(check bool) "with its own status" true
    (status_of "stencil [base]" drop = Some Bench_diff.Drop);
  let removed = diff0 base (List.tl base) in
  Alcotest.(check bool) "a removed entry fails" true (Bench_diff.failed removed);
  Alcotest.(check bool) "listed as removed" true
    (status_of "mm [base]" removed = Some Bench_diff.Removed)

let test_bench_diff_passes_same_and_new () =
  let base = grid (fun i -> 1000.0 +. float_of_int i) in
  Alcotest.(check bool) "identical files pass" false (Bench_diff.failed (diff0 base base));
  let added = diff0 base (base @ [ ("qr", "base", 5.0) ]) in
  Alcotest.(check bool) "a new entry passes" false (Bench_diff.failed added);
  Alcotest.(check bool) "and is listed" true
    (status_of "qr [base]" added = Some Bench_diff.New)

(* ---- side files keep the requested format behind a shard suffix ---- *)

let test_side_file_format () =
  let dir = Filename.get_temp_dir_name () in
  let file name = Filename.concat dir (Printf.sprintf "infs-side-%d-%s" (Unix.getpid ()) name) in
  let read f =
    let ic = open_in f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove f;
    s
  in
  let prof = Prof.create () in
  Prof.record_path prof "serve;request;write_back" ~ns:1e3 ();
  let pf = file "x.prof.json.shard0" in
  Prof.write_file prof pf;
  (match Json.parse (read pf) with
  | Ok j ->
    Alcotest.(check (option string)) "a .json.shard0 profile is JSON" (Some "infs-prof-1")
      (Option.bind (Json.member "schema" j) Json.to_str)
  | Error e -> Alcotest.failf "shard profile is not JSON: %s" e);
  let m = Metrics.create () in
  Metrics.incr m "serve.ok" 1.0;
  let mf = file "x.metrics.prom.shard1" in
  Metrics.write_file m mf;
  Alcotest.(check bool) "a .prom.shard1 snapshot is Prometheus text" true
    (Result.is_error (Json.parse (read mf)));
  Alcotest.(check bool) "a bare .shard0 suffix is no format" false (Side_file.has_ext "x.shard0" ".json")

let suite =
  [
    ("null registry is inert", `Quick, test_null_registry);
    ("span nesting and unbalanced leave", `Quick, test_span_nesting);
    ("span is exception-safe", `Quick, test_span_exception_safe);
    ("record_path + merge order irrelevance", `Quick, test_record_path_and_merge);
    ("folded-stack rendering", `Quick, test_folded_format);
    ("golden profile: stencil1d @ Inf-S", `Quick, test_golden_report);
    ("serve request spans reconcile", `Quick, test_serve_request_spans);
    ("side files keep the format behind .shard<i>", `Quick, test_side_file_format);
    ("trend: golden page from fixtures", `Quick, test_trend_golden_page);
    ("trend: missing cells and flat series", `Quick, test_trend_missing_cells);
    ("bisect: sub-threshold jitter is quiet", `Quick, test_bisect_no_regression);
    ("bisect: global shift collapses to root", `Quick, test_bisect_everything_moved);
    ("bisect: whole-workload slice named", `Quick, test_bisect_workload_slice);
    ("bisect: per-cell ranking by impact", `Quick, test_bisect_single_cell_and_sign);
    ("bisect: disjoint snapshots compare nothing", `Quick,
     test_bisect_disjoint_keys_ignored);
  ]
  @ reconcile_tests
  @ [
      ("bench-diff: a drop or a removal fails at 0%", `Quick,
       test_bench_diff_fails_on_drop_and_removal);
      ("bench-diff: identical files and a new entry pass", `Quick,
       test_bench_diff_passes_same_and_new);
    ]
