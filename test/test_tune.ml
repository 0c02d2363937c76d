(* Autotuning subsystem (lib/tune, DESIGN.md §14):
   - determinism: a tuning run is byte-identical at any jobs count,
   - memoization: a repeat tune() is a cache hit exploring 0 candidates,
   - the winner is never worse than the Eq. 2 / layout-heuristic baseline,
   - JSON round-trips (report line and the persisted cache file),
   - a qcheck property: runs under a tuned decision policy stay
     functionally bit-exact (max-err 0.0) across paradigms and overrides,
   - a search compiles once and leaves the process-wide compile cache
     untouched,
   - the memo key is exact, and an unwritable cache file is an Error. *)

module T = Infs_tune.Tune
module E = Infinity_stream.Engine
module R = Infinity_stream.Report
module Cat = Infs_workloads.Catalog

let vec_add () = Infs_workloads.Micro.vec_add ~n:16_384
let stencil () = Infs_workloads.Stencil.stencil2d ~iters:2 ~n:48

let tune_exn ?options ?budget ?jobs resolve =
  match T.tune ?options ?budget ?jobs resolve with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let report_bytes r = Json.to_string (T.result_to_json r)

let save_exn file =
  match T.save_cache file with Ok () -> () | Error e -> Alcotest.fail e

let test_jobs_byte_identity () =
  T.cache_clear ();
  let r1 = tune_exn ~budget:16 ~jobs:1 vec_add in
  T.cache_clear ();
  let r4 = tune_exn ~budget:16 ~jobs:4 vec_add in
  Alcotest.(check string) "jobs:4 report is byte-identical to jobs:1"
    (report_bytes r1) (report_bytes r4)

let test_memoized_second_run () =
  T.cache_clear ();
  let r1 = tune_exn ~budget:16 ~jobs:2 vec_add in
  let r2 = tune_exn ~budget:16 ~jobs:2 vec_add in
  Alcotest.(check bool) "first run is fresh" false r1.T.from_cache;
  Alcotest.(check bool) "second run is a cache hit" true r2.T.from_cache;
  Alcotest.(check int) "cache hit explores 0 new candidates" 0
    (List.length r2.T.explored);
  Alcotest.(check string) "same winner"
    (Json.to_string (T.config_to_json r1.T.winner.config))
    (Json.to_string (T.config_to_json r2.T.winner.config));
  (* a different budget is a different key, not a stale hit *)
  let r3 = tune_exn ~budget:8 ~jobs:2 vec_add in
  Alcotest.(check bool) "budget is part of the key" false r3.T.from_cache

let test_winner_never_worse () =
  T.cache_clear ();
  List.iter
    (fun resolve ->
      let r = tune_exn ~budget:16 ~jobs:2 resolve in
      Alcotest.(check bool) "winner <= Eq. 2 heuristic baseline" true
        (r.T.winner.cycles <= r.T.baseline.cycles);
      Alcotest.(check bool) "gap is baseline/winner" true
        (Float.abs (r.T.gap -. (r.T.baseline.cycles /. r.T.winner.cycles))
        < 1e-9))
    [ vec_add; stencil ]

let test_report_json_roundtrip () =
  T.cache_clear ();
  let r = tune_exn ~budget:12 ~jobs:2 stencil in
  match T.result_of_json (T.result_to_json r) with
  | Error e -> Alcotest.fail ("result_of_json: " ^ e)
  | Ok r' ->
    Alcotest.(check string) "round-trips to identical bytes" (report_bytes r)
      (report_bytes r')

let test_cache_file_roundtrip () =
  T.cache_clear ();
  let r1 = tune_exn ~budget:12 ~jobs:2 vec_add in
  let file = Filename.temp_file "infs-tune-cache" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      save_exn file;
      let bytes1 = In_channel.with_open_bin file In_channel.input_all in
      save_exn file;
      let bytes2 = In_channel.with_open_bin file In_channel.input_all in
      Alcotest.(check string) "cache file bytes are deterministic" bytes1
        bytes2;
      T.cache_clear ();
      (match T.load_cache file with
      | Ok n -> Alcotest.(check bool) "loaded at least one entry" true (n >= 1)
      | Error e -> Alcotest.fail ("load_cache: " ^ e));
      let r2 = tune_exn ~budget:12 ~jobs:2 vec_add in
      Alcotest.(check bool) "loaded entry serves the repeat run" true
        r2.T.from_cache;
      Alcotest.(check string) "same winner after reload"
        (Json.to_string (T.config_to_json r1.T.winner.config))
        (Json.to_string (T.config_to_json r2.T.winner.config)))

(* ---- tuned runs are functionally bit-exact vs the heuristic ----

   A decision policy only moves kernels across the offload boundary; it
   never changes values beyond choosing which execution path computes
   them. Each path's values are deterministic, so a uniformly-forced run
   must be value-identical to the heuristic run of the paradigm that
   always takes that path: force-core matches Near-L3's near/core path,
   force-imc matches In-L3's always-in-memory path, and an all-Auto
   tuned policy matches the plain heuristic. Reference max-errs are
   exact path fingerprints here (0.0 on the near/core path; the fp32
   reassociation error of the in-memory path otherwise), so equality of
   max-errs is equality of computed values. *)

let checked_err p policy w =
  let options =
    {
      E.default_options with
      E.functional = true;
      share_compile = true;
      decision_policy = policy;
    }
  in
  match (E.run_exn ~options p w).R.correctness with
  | `Checked err -> err
  | `Skipped -> Alcotest.fail "functional run skipped its check"

let forced d = Decision.Tuned { default = d; per_kernel = [] }

let prop_tuned_run_bit_exact =
  QCheck.Test.make
    ~name:"tuned overrides are bit-exact vs the forced path's heuristic"
    ~count:20
    (QCheck.make
       ~print:(fun (p, ov, w) ->
         Printf.sprintf "%s / %s / %s" (E.paradigm_to_string p)
           (Decision.override_name ov)
           (match w with `Vec_add -> "vec_add" | `Stencil -> "stencil2d"))
       QCheck.Gen.(
         triple
           (oneofl [ E.Inf_s; E.Inf_s_nojit; E.In_l3 ])
           (oneofl [ Decision.Auto; Decision.Force_imc; Decision.Force_core ])
           (oneofl [ `Vec_add; `Stencil ])))
    (fun (p, ov, which) ->
      let w = match which with `Vec_add -> vec_add () | `Stencil -> stencil () in
      let err = checked_err p (forced ov) w in
      let expected =
        match ov with
        | Decision.Auto -> checked_err p Decision.Heuristic w
        | Decision.Force_core -> checked_err E.Near_l3 Decision.Heuristic w
        | Decision.Force_imc -> checked_err E.In_l3 Decision.Heuristic w
      in
      err = expected)

(* the acceptance criterion verbatim: consuming a tuned winner stays
   Checked 0.0, exactly like the heuristic run it replaces *)
let test_tuned_winner_checked_zero () =
  T.cache_clear ();
  let r = tune_exn ~budget:16 ~jobs:2 vec_add in
  let p, options = T.apply r E.default_options in
  let options = { options with E.functional = true; share_compile = true } in
  (match (E.run_exn ~options p (vec_add ())).R.correctness with
  | `Checked err -> Alcotest.(check (float 0.0)) "tuned run max-err" 0.0 err
  | `Skipped -> Alcotest.fail "tuned run skipped its check");
  Alcotest.(check (float 0.0)) "heuristic run max-err" 0.0
    (checked_err E.Inf_s Decision.Heuristic (vec_add ()))

(* A search compiles its program once and scores every candidate on that
   compile: the process-wide compile cache (and so every long-lived plan
   store) is never touched, and the plans die with the search. *)
let test_one_compile_per_search () =
  E.compile_cache_clear ();
  T.cache_clear ();
  ignore (tune_exn ~budget:16 ~jobs:2 stencil);
  let hits, misses, entries = E.compile_cache_stats () in
  Alcotest.(check (list int)) "compile cache hits, misses, entries" [ 0; 0; 0 ]
    [ hits; misses; entries ]

(* Two programs whose constants differ past the sixth significant digit
   are two tuning problems: the second is searched, under its own key. *)
let test_exact_key () =
  T.cache_clear ();
  let saxpy a () = Infs_workloads.Extras.saxpy ~n:64 ~a in
  let r1 = tune_exn ~budget:4 ~jobs:1 (saxpy 2.5) in
  let r2 = tune_exn ~budget:4 ~jobs:1 (saxpy 2.5000004) in
  Alcotest.(check bool) "second program is searched" false r2.T.from_cache;
  Alcotest.(check bool) "keys differ" true (r1.T.key <> r2.T.key)

(* A cache that cannot be written is an [Error], not an exception. *)
let test_save_unwritable () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "infs-no-such-dir" in
  Alcotest.(check bool) "the directory is missing" false (Sys.file_exists dir);
  Alcotest.(check bool) "save returns Error" true
    (Result.is_error (T.save_cache (Filename.concat dir "cache.json")))

let suite =
  [
    ("tune: jobs:4 byte-identical to jobs:1", `Quick, test_jobs_byte_identity);
    ("tune: second run memoized", `Quick, test_memoized_second_run);
    ("tune: winner never worse than Eq. 2", `Quick, test_winner_never_worse);
    ("tune: report JSON round-trip", `Quick, test_report_json_roundtrip);
    ("tune: cache file round-trip", `Quick, test_cache_file_roundtrip);
    ("tune: winner run stays Checked 0.0", `Quick, test_tuned_winner_checked_zero);
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_tuned_run_bit_exact;
    ("tune: one compile per search, compile cache untouched", `Quick, test_one_compile_per_search);
    ("tune: constants past %g are distinct keys", `Quick, test_exact_key);
    ("tune: unwritable cache file is an Error", `Quick, test_save_unwritable);
  ]
