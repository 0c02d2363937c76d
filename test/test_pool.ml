(* The multicore batch-execution subsystem (infs_pool):
   - submission-order determinism under an adversarial scheduler (jobs with
     deliberately inverted durations complete out of order; results must
     not),
   - per-job wall-clock timeouts fire without killing the pool,
   - exception capture: a crashing job is an [Error], not a pool death,
   - a submit racing shutdown: it raises or its ticket resolves, and the
     ticker stops with the pool,
   - a qcheck property: [run ~jobs:k] equals [run ~jobs:1] on random job
     lists, failing and degraded jobs included,
   - [run_list ~jobs:1] runs its thunks in order on the calling domain,
   - the content-addressed cache (Ccache) under concurrent access, and
     its bound (reset when full, evictions counted),
   - engine domain-safety: concurrent engine runs (including functional
     ones and shared compile caching, with plan stores filled warm or
     cold) report exactly what sequential runs report,
   - private runs retain nothing: a private compile's plans die with it,
   - concurrent misses of one Ccache key compute it once, and a compute
     that raises wakes the callers waiting on it,
   - the compile key is exact (constants past %g are two compiles) and
     canonical (a rebuilt catalog program hits). *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report

(* ---- pool core ---- *)

let test_inverted_durations () =
  (* later-submitted jobs finish first; results must stay in submission
     order *)
  let n = 8 in
  let ran = Atomic.make 0 in
  let got =
    Pool.run_list ~jobs:4
      (List.init n (fun i () ->
           Atomic.incr ran;
           Unix.sleepf (float_of_int (n - i) *. 0.01);
           i * i))
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "result in submission order" (i * i) v
      | Error e -> Alcotest.fail (Pool.error_to_string e))
    got;
  Alcotest.(check (pair int int)) "every job run and returned exactly once" (n, n)
    (Atomic.get ran, List.length got)

let test_run_list_order () =
  let results =
    Pool.run_list ~jobs:3
      (List.init 12 (fun i () ->
           Unix.sleepf (if i mod 3 = 0 then 0.02 else 0.001);
           i))
  in
  Alcotest.(check (list int)) "submission order"
    (List.init 12 Fun.id)
    (List.map (function Ok v -> v | Error _ -> -1) results)

let test_timeout_fires () =
  let pool = Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let slow = Pool.submit pool ~timeout_s:0.05 (fun () -> Unix.sleepf 5.0) in
      (match Pool.await slow with
      | Error Pool.Timed_out -> ()
      | Ok _ -> Alcotest.fail "slow job should have timed out"
      | Error e -> Alcotest.fail (Pool.error_to_string e));
      Alcotest.(check bool) "await returned at the timeout, not at completion"
        true
        (Unix.gettimeofday () -. t0 < 2.0);
      (* the pool survives: the other worker still takes jobs *)
      let ok = Pool.submit pool ~timeout_s:10.0 (fun () -> 41 + 1) in
      match Pool.await ok with
      | Ok v -> Alcotest.(check int) "pool alive after timeout" 42 v
      | Error e -> Alcotest.fail (Pool.error_to_string e))

let test_ticker_parks_when_idle () =
  (* a resident pool that once ran a timeout-armed job must not keep the
     ticker domain spinning after the job completes *)
  let pool = Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (match Pool.await (Pool.submit pool ~timeout_s:5.0 (fun () -> 7)) with
      | Ok 7 -> ()
      | _ -> Alcotest.fail "armed job should complete");
      (* give the ticker a few periods to reap the finished watcher *)
      Unix.sleepf 0.05;
      let t1 = Pool.ticker_ticks pool in
      Unix.sleepf 0.2;
      let t2 = Pool.ticker_ticks pool in
      (* a spinning ticker would add ~100 ticks in 0.2 s; a parked one
         adds none (a generous slack of 3 absorbs scheduling noise) *)
      Alcotest.(check bool)
        (Printf.sprintf "ticker parked while idle (%d -> %d)" t1 t2)
        true
        (t2 - t1 <= 3);
      (* and it wakes again for the next armed job *)
      match Pool.await (Pool.submit pool ~timeout_s:0.05 (fun () -> Unix.sleepf 5.0)) with
      | Error Pool.Timed_out -> ()
      | Ok _ -> Alcotest.fail "expected a timeout after re-arming"
      | Error e -> Alcotest.fail (Pool.error_to_string e))

let test_exception_capture () =
  let results =
    Pool.run_list ~jobs:2
      [
        (fun () -> 1);
        (fun () -> failwith "boom");
        (fun () -> 3);
        (fun () -> raise Not_found);
        (fun () -> 5);
      ]
  in
  match results with
  | [ Ok 1; Error (Pool.Failed m1); Ok 3; Error (Pool.Failed m2); Ok 5 ] ->
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "carries the exception text" true (contains m1 "boom");
    Alcotest.(check bool) "Not_found captured" true (contains m2 "Not_found")
  | _ -> Alcotest.fail "crashing jobs must not affect their neighbours"

(* One domain submits as fast as it can, every third job with a deadline,
   while another shuts the pool down a little later each round. Every
   submit raises [Invalid_argument] (and so does every one after it) or
   returns a ticket that resolves; once shutdown returns, the ticker is
   joined and no submit racing it starts another. The awaits run on their
   own domain, so a lost ticket fails the test instead of hanging it. *)
let test_submit_races_shutdown () =
  for round = 0 to 39 do
    let pool = Pool.create ~jobs:2 () in
    let arrived = Atomic.make 0 in
    let go () =
      Atomic.incr arrived;
      while Atomic.get arrived < 2 do
        Domain.cpu_relax ()
      done
    in
    let submitter =
      Domain.spawn (fun () ->
          go ();
          (* until 8 submits past the first refusal, at most 4,000 *)
          let rec loop i refused acc =
            if i = 4000 || refused = 8 then List.rev acc
            else
              let timeout_s = if i mod 3 = 0 then Some 0.001 else None in
              match
                Pool.submit pool ?timeout_s (fun () ->
                    if i mod 50 = 0 then Unix.sleepf 0.002;
                    i)
              with
              | tk -> loop (i + 1) refused (Some (i, timeout_s <> None, tk) :: acc)
              | exception Invalid_argument _ -> loop (i + 1) (refused + 1) (None :: acc)
          in
          loop 0 0 [])
    in
    let stopper =
      Domain.spawn (fun () ->
          go ();
          let until = Unix.gettimeofday () +. (float_of_int round *. 2e-5) in
          while Unix.gettimeofday () < until do
            Domain.cpu_relax ()
          done;
          Pool.shutdown pool;
          Pool.ticker_ticks pool)
    in
    let submits = Domain.join submitter in
    let ticks = Domain.join stopper in
    let landed = List.filter_map Fun.id submits in
    Alcotest.(check bool) "a refused submit stays refused" true
      (List.filteri (fun i _ -> i < List.length landed) submits
      |> List.for_all Option.is_some);
    let resolved = Atomic.make 0 in
    let awaiter =
      Domain.spawn (fun () ->
          List.map
            (fun (i, armed, tk) ->
              let r = Pool.await tk in
              Atomic.incr resolved;
              (i, armed, r))
            landed)
    in
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get resolved < List.length landed && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.001
    done;
    if Atomic.get resolved < List.length landed then
      Alcotest.failf "round %d: %d of %d tickets never resolved" round
        (List.length landed - Atomic.get resolved)
        (List.length landed);
    List.iter
      (fun (i, armed, r) ->
        match r with
        | Ok v -> Alcotest.(check int) "a job's own value" i v
        | Error Pool.Cancelled -> ()
        | Error Pool.Timed_out when armed -> ()
        | Error e -> Alcotest.fail (Pool.error_to_string e))
      (Domain.join awaiter);
    Unix.sleepf 0.005;
    Alcotest.(check int) "no ticks after shutdown" ticks (Pool.ticker_ticks pool)
  done

(* Some jobs fail and some degrade: the inline run and the pooled run map
   them to the same outcomes, messages included. *)
let prop_parallel_equals_sequential =
  QCheck.Test.make ~name:"run ~jobs:k equals run ~jobs:1" ~count:30
    QCheck.(pair (int_range 2 4) (small_list small_int))
    (fun (k, xs) ->
      let jobs =
        List.map
          (fun x () ->
            match x mod 5 with
            | 3 -> failwith (Printf.sprintf "job %d failed" x)
            | 4 -> raise (Pool.Degradation (Printf.sprintf "job %d degraded" x))
            | _ -> (x * 31) lxor (x lsr 2))
          xs
      in
      Pool.run_list ~jobs:1 jobs = Pool.run_list ~jobs:k jobs)

(* The thunks run in order on the calling domain, and a raise is mapped
   to an outcome without stopping the thunks after it. *)
let test_run_list_inline () =
  let self = Domain.self () in
  let order = ref [] in
  let got =
    Pool.run_list ~jobs:1
      (List.init 5 (fun i () ->
           order := i :: !order;
           if i = 2 then failwith "two";
           Domain.self () = self))
  in
  Alcotest.(check (list int)) "in order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  match got with
  | [ Ok true; Ok true; Error (Pool.Failed m); Ok true; Ok true ] ->
    Alcotest.(check string) "the worker's mapping" (Printexc.to_string (Failure "two")) m
  | _ -> Alcotest.fail "expected every thunk on the calling domain, the third failed"

(* ---- retry backoff: capped full jitter ---- *)

let test_backoff_bounds () =
  (* every draw lies in [0, min cap (backoff * 2^attempt)) — the raw
     exponential is both capped and jittered *)
  let backoff_s = 0.1 and cap_s = 1.0 in
  for seed = 0 to 19 do
    let rng = Rng.create seed in
    for attempt = 0 to 12 do
      let d = Pool.backoff_delay ~backoff_s ~cap_s ~attempt rng in
      let raw = backoff_s *. (2.0 ** float_of_int attempt) in
      Alcotest.(check bool) "non-negative" true (d >= 0.0);
      Alcotest.(check bool) "below the raw exponential" true (d < raw || raw > cap_s);
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d capped at %.1fs, drew %.3f" attempt cap_s d)
        true (d < cap_s)
    done
  done

let test_backoff_caps_growth () =
  (* attempt 60: uncapped this would be ~3.6e16 years; capped it stays
     under cap_s *)
  let rng = Rng.create 5 in
  let d = Pool.backoff_delay ~backoff_s:1.0 ~cap_s:30.0 ~attempt:60 rng in
  Alcotest.(check bool) "huge attempt stays capped" true (d >= 0.0 && d < 30.0)

let test_backoff_jitters () =
  (* full jitter: distinct draws for the same attempt (no lockstep
     stampede), yet the same seed reproduces the same schedule *)
  let draws seed =
    let rng = Rng.create seed in
    List.init 8 (fun attempt ->
        Pool.backoff_delay ~backoff_s:0.5 ~cap_s:30.0 ~attempt rng)
  in
  Alcotest.(check bool) "same seed, same schedule" true (draws 11 = draws 11);
  Alcotest.(check bool) "different seeds decorrelate" true (draws 11 <> draws 12);
  (* within one stream the draws are not all equal (actual jitter) *)
  let ds = draws 11 in
  Alcotest.(check bool) "draws vary" true
    (List.exists (fun d -> d <> List.hd ds) ds)

let test_backoff_zero_disabled () =
  let rng = Rng.create 1 in
  Alcotest.check (Alcotest.float 0.0) "backoff 0 retries immediately" 0.0
    (Pool.backoff_delay ~backoff_s:0.0 ~cap_s:30.0 ~attempt:5 rng);
  Alcotest.check (Alcotest.float 0.0) "negative backoff treated as disabled" 0.0
    (Pool.backoff_delay ~backoff_s:(-1.0) ~cap_s:30.0 ~attempt:5 rng)

let test_retries_with_capped_backoff () =
  (* end to end: a twice-failing job succeeds on the third attempt, and
     the whole jittered schedule stays fast *)
  let t0 = Unix.gettimeofday () in
  let tries = Atomic.make 0 in
  let pool = Pool.create ~jobs:1 () in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        Pool.await
          (Pool.submit pool ~retries:4 ~backoff_s:0.005 (fun () ->
               if Atomic.fetch_and_add tries 1 < 2 then failwith "transient";
               "ok")))
  in
  (match outcome with
  | Ok "ok" -> ()
  | Ok s -> Alcotest.failf "unexpected result %S" s
  | Error e -> Alcotest.fail (Pool.error_to_string e));
  Alcotest.(check int) "third attempt succeeded" 3 (Atomic.get tries);
  Alcotest.(check bool) "capped schedule completes quickly" true
    (Unix.gettimeofday () -. t0 < 2.0)

(* ---- content-addressed cache ---- *)

let test_ccache_basics () =
  let c = Ccache.create ~shards:4 () in
  let calls = ref 0 in
  let v, hit =
    Ccache.find_or_compute c ~key:"a" (fun () ->
        incr calls;
        "va")
  in
  Alcotest.(check (pair string bool)) "miss computes" ("va", false) (v, hit);
  let v, hit = Ccache.find_or_compute c ~key:"a" (fun () -> Alcotest.fail "hit") in
  Alcotest.(check (pair string bool)) "hit reuses" ("va", true) (v, hit);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "one entry" 1 (Ccache.length c);
  Alcotest.(check (pair int int)) "counters" (1, 1) (Ccache.hits c, Ccache.misses c);
  Ccache.reset c;
  Alcotest.(check int) "reset drops entries" 0 (Ccache.length c);
  Alcotest.(check (pair int int)) "reset zeroes counters" (0, 0)
    (Ccache.hits c, Ccache.misses c)

let test_ccache_concurrent () =
  (* many domains hammering few keys: every caller must observe the same
     value per key *)
  let c = Ccache.create ~shards:2 () in
  let keys = [ "k0"; "k1"; "k2" ] in
  let results =
    Pool.run_list ~jobs:4
      (List.concat_map
         (fun key ->
           List.init 8 (fun _ () ->
               fst (Ccache.find_or_compute c ~key (fun () -> key ^ "!"))))
         keys)
  in
  List.iteri
    (fun i r ->
      let key = List.nth keys (i / 8) in
      match r with
      | Ok v -> Alcotest.(check string) "stable value" (key ^ "!") v
      | Error e -> Alcotest.fail (Pool.error_to_string e))
    results;
  Alcotest.(check int) "one entry per key" 3 (Ccache.length c)

(* ---- engine domain-safety: parallel == sequential ---- *)

let agreement_pairs () =
  [
    (Infs_workloads.Stencil.stencil1d ~iters:2 ~n:2048, E.Inf_s);
    (Infs_workloads.Micro.vec_add ~n:4096, E.In_l3);
    (Infs_workloads.Mm.mm_outer ~n:16, E.Near_l3);
    (Infs_workloads.Gauss.gauss_elim ~n:12, E.Inf_s);
    (Infs_workloads.Dwt2d.dwt2d ~n:16, E.Base);
  ]

let report_fingerprint (r : R.t) =
  (* the pretty-printer covers cycles, energy, breakdown, utilization and
     correctness; add the raw float and traffic lists for exactness *)
  Format.asprintf "%a|%.17g|%s" R.pp r r.R.cycles
    (String.concat ";"
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%.17g" k v)
          (r.R.noc_byte_hops @ r.R.local_bytes @ r.R.energy_breakdown)))

let test_concurrent_engine_agreement () =
  let options = { E.default_options with share_compile = true } in
  let sequential () =
    List.map (fun (w, p) -> report_fingerprint (E.run_exn ~options p w))
      (agreement_pairs ())
  in
  (* every pair twice, so two domains run the same compiled program at
     once and race on its plan store *)
  let parallel () =
    Pool.run_list ~jobs:4
      (List.concat_map
         (fun (w, p) ->
           let run () = report_fingerprint (E.run_exn ~options p w) in
           [ run; run ])
         (agreement_pairs ()))
  in
  let check want got =
    List.iteri
      (fun i got ->
        match got with
        | Ok got -> Alcotest.(check string) "parallel == sequential" (List.nth want (i / 2)) got
        | Error e -> Alcotest.fail (Pool.error_to_string e))
      got
  in
  (* sequential first: the parallel runs find every plan stored *)
  let want = sequential () in
  check want (parallel ());
  (* cold: the plan stores fill concurrently, then serve sequential runs *)
  E.compile_cache_clear ();
  let got = parallel () in
  check (sequential ()) got;
  check want got

let test_concurrent_functional_runs () =
  (* functional mode forces shared lazy inputs and checks against the
     golden interpreter — the two hazards the audit guards with a mutex *)
  let ws =
    [
      Infs_workloads.Micro.vec_add ~n:512;
      Infs_workloads.Micro.array_sum ~n:512;
      Infs_workloads.Mm.mm_outer ~n:8;
      Infs_workloads.Mm.mm_inner ~n:8;
    ]
  in
  let options = { E.default_options with functional = true; share_compile = true } in
  let results =
    Pool.run_list ~jobs:4
      (List.map (fun w () -> (E.run_exn ~options E.Inf_s w).R.correctness) ws)
  in
  List.iter
    (function
      | Ok (`Checked err) ->
        Alcotest.(check bool) "functionally correct under concurrency" true
          (err <= 1e-3)
      | Ok `Skipped -> Alcotest.fail "expected a correctness check"
      | Error e -> Alcotest.fail (Pool.error_to_string e))
    results

let test_concurrent_rng_determinism () =
  (* Rng is per-instance state: domains with equal seeds must see equal
     streams, regardless of interleaving *)
  let draw () =
    let rng = Rng.create 1234 in
    List.init 256 (fun _ -> Rng.int64 rng)
  in
  let want = draw () in
  List.iter
    (function
      | Ok got -> Alcotest.(check bool) "identical stream per domain" true (got = want)
      | Error e -> Alcotest.fail (Pool.error_to_string e))
    (Pool.run_list ~jobs:4 (List.init 4 (fun _ -> draw)))

let test_compile_cache_hits () =
  E.compile_cache_clear ();
  let options = { E.default_options with share_compile = true } in
  let w = Infs_workloads.Micro.vec_add ~n:1024 in
  ignore (E.run_exn ~options E.Inf_s w);
  ignore (E.run_exn ~options E.In_l3 w);
  ignore (E.run_exn ~options E.Near_l3 w);
  let hits, misses, entries = E.compile_cache_stats () in
  Alcotest.(check bool) "same program across paradigms hits" true (hits >= 2);
  Alcotest.(check int) "compiled once" 1 misses;
  Alcotest.(check int) "one cached binary" 1 entries;
  (* a different optimizer flag is a different artifact *)
  ignore (E.run_exn ~options:{ options with E.optimize = false } E.Inf_s w);
  let _, misses', entries' = E.compile_cache_stats () in
  Alcotest.(check int) "optimize flag keys separately" 2 misses';
  Alcotest.(check int) "two cached binaries" 2 entries';
  E.compile_cache_clear ()

(* A bounded table resets when one more distinct key arrives, counts the
   eviction, and recomputes what it dropped; concurrent stores never leave
   it over capacity. *)
let test_ccache_bound () =
  let c = Ccache.create ~shards:4 ~capacity:4 () in
  let computed = ref 0 in
  let get key =
    fst
      (Ccache.find_or_compute c ~key (fun () ->
           incr computed;
           key ^ "!"))
  in
  List.iter (fun k -> ignore (get k)) [ "a"; "b"; "c"; "d" ];
  Alcotest.(check (pair int int)) "full, nothing evicted" (4, 0)
    (Ccache.length c, Ccache.evictions c);
  Alcotest.(check string) "a hit at capacity" "a!" (get "a");
  Alcotest.(check int) "hits do not recompute" 4 !computed;
  Alcotest.(check string) "one more key is stored" "e!" (get "e");
  Alcotest.(check (pair int int)) "reset on the fifth key" (1, 1)
    (Ccache.length c, Ccache.evictions c);
  Alcotest.(check string) "recomputed after the reset" "a!" (get "a");
  Alcotest.(check int) "a computed twice" 6 !computed;
  Alcotest.(check (pair int int)) "counters" (1, 6) (Ccache.hits c, Ccache.misses c);
  let c = Ccache.create ~capacity:16 () in
  let results =
    Pool.run_list ~jobs:4
      (List.init 4 (fun d () ->
           List.for_all
             (fun i ->
               let key = Printf.sprintf "%d.%d" d (i mod 50) in
               fst (Ccache.find_or_compute c ~key (fun () -> key)) = key)
             (List.init 400 Fun.id)))
  in
  List.iter
    (function
      | Ok ok -> Alcotest.(check bool) "every lookup returns its key's value" true ok
      | Error e -> Alcotest.fail (Pool.error_to_string e))
    results;
  Alcotest.(check bool) "never over capacity" true (Ccache.length c <= 16);
  Alcotest.(check bool) "evictions counted" true (Ccache.evictions c > 0)

(* A private compile's plans die with its run: after a warm-up (per-domain
   cost memos, lazily built tables), repeated private runs leave the live
   heap where it was. *)
let test_private_runs_retain_nothing () =
  let w = Infs_workloads.Gauss.gauss_elim ~n:24 in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  ignore (E.run_exn E.Inf_s w);
  let before = live_words () in
  for _ = 1 to 50 do
    ignore (E.run_exn E.Inf_s w)
  done;
  let grown = live_words () - before in
  if grown > 0 then Alcotest.failf "50 private runs grew the live heap by %d words" grown

(* Two domains released together miss one key: the first computes, the
   second waits for that value (a hit) instead of computing it again. *)
let test_ccache_concurrent_miss_computes_once () =
  let c = Ccache.create () in
  let computes = Atomic.make 0 and arrived = Atomic.make 0 in
  let get () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    fst
      (Ccache.find_or_compute c ~key:"k" (fun () ->
           Atomic.incr computes;
           Unix.sleepf 0.05;
           "v"))
  in
  let d1 = Domain.spawn get and d2 = Domain.spawn get in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check (pair string string)) "both callers see the value" ("v", "v") (r1, r2);
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  Alcotest.(check (pair int int)) "hits / misses" (1, 1) (Ccache.hits c, Ccache.misses c)

(* A compute that raises wakes the callers waiting on it; one of them
   computes. The waiter runs on its own domain, so a lost wakeup fails the
   test instead of hanging it. *)
let test_ccache_raising_compute_wakes_waiters () =
  let c = Ccache.create () in
  let started = Atomic.make false in
  let failing =
    Domain.spawn (fun () ->
        match
          Ccache.find_or_compute c ~key:"k" (fun () ->
              Atomic.set started true;
              Unix.sleepf 0.05;
              failwith "compute failed")
        with
        | _ -> None
        | exception Failure m -> Some m)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let got = Atomic.make None in
  let waiter =
    Domain.spawn (fun () ->
        Atomic.set got (Some (Ccache.find_or_compute c ~key:"k" (fun () -> "second"))))
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get got = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  match Atomic.get got with
  | None -> Alcotest.fail "a caller waiting on a raising compute stayed blocked"
  | Some r ->
    Domain.join waiter;
    Alcotest.(check (option string)) "the exception reaches its caller"
      (Some "compute failed") (Domain.join failing);
    Alcotest.(check (pair string bool)) "the waiter computes" ("second", false) r;
    Alcotest.(check (pair int int)) "hits / misses" (0, 2) (Ccache.hits c, Ccache.misses c);
    Alcotest.(check (option string)) "its value is stored" (Some "second")
      (Ccache.find_opt c "k")

(* The compile key is exact: two programs whose constants differ past the
   sixth significant digit are two compiles, and the second's shared run
   computes what its private run computes. *)
let test_compile_key_exact () =
  let options = { E.default_options with functional = true; share_compile = true } in
  let err options w =
    match (E.run_exn ~options E.Inf_s w).R.correctness with
    | `Checked err -> err
    | `Skipped -> Alcotest.fail "functional run skipped its check"
  in
  let w1 = Infs_workloads.Extras.saxpy ~n:64 ~a:2.5 in
  let w2 = Infs_workloads.Extras.saxpy ~n:64 ~a:2.5000004 in
  E.compile_cache_clear ();
  ignore (err options w1);
  let shared = err options w2 in
  let hits, misses, entries = E.compile_cache_stats () in
  E.compile_cache_clear ();
  Alcotest.(check (list int)) "compile cache hits, misses, entries" [ 0; 2; 2 ]
    [ hits; misses; entries ];
  Alcotest.(check (float 0.0)) "shared run == private run"
    (err { options with share_compile = false } w2)
    shared;
  Alcotest.(check (float 0.0)) "max error" 0.0 shared

(* The key is canonical: every test-scale catalog program, built afresh by
   [Catalog.find] for each request as serve does, hits the compile of the
   first build. *)
let test_compile_key_rebuilt_catalog () =
  let options = { E.default_options with share_compile = true } in
  List.iter
    (fun name ->
      E.compile_cache_clear ();
      for _ = 1 to 2 do
        match Infs_workloads.Catalog.find `Test name with
        | Ok w -> ignore (E.run_exn ~options E.Inf_s w)
        | Error e -> Alcotest.fail e
      done;
      let hits, misses, _ = E.compile_cache_stats () in
      Alcotest.(check (pair int int)) (name ^ ": hits, misses") (1, 1) (hits, misses))
    (Infs_workloads.Catalog.names `Test);
  E.compile_cache_clear ()

(* Keys whose hashes all collide share one bucket of one shard: each
   lookup still finds its own key's value, through the bucket growth that
   the stores trigger. *)
let test_ccache_colliding_hashes () =
  let c = Ccache.create ~shards:2 ~hash:(fun _ -> 7) ~equal:Int.equal () in
  for k = 0 to 99 do
    Alcotest.(check int) "miss computes" (k * 3) (Ccache.get c k (fun () -> k * 3))
  done;
  for k = 99 downto 0 do
    Alcotest.(check int) "hit finds its key" (k * 3) (Ccache.get c k (fun () -> Alcotest.fail "hit"))
  done;
  Alcotest.(check (list int)) "entries, hits, misses" [ 100; 100; 100 ]
    [ Ccache.length c; Ccache.hits c; Ccache.misses c ];
  Alcotest.(check (list int)) "fold in key order" (List.init 100 Fun.id)
    (List.rev (Ccache.fold (fun k _ acc -> k :: acc) c []))

(* ---- plan keys at the edges ---- *)

let report_json r = Json.to_string (R.to_json r)

(* Host loops [a] over -2..1 and [b] over BIG..BIG+1: kernel [wide]'s
   domain reads a negative value and two values too wide to pack
   together (BIG = 2^40), kernel [narrow]'s reads [a] and [N] only, so
   its keys pack while [a] >= 0 and take the exact path while [a] < 0. *)
let edge_keys ~n =
  let prog =
    let open Ast in
    let nv = Symaff.var "N" and big = Symaff.var "BIG" in
    let body = (* a dot of a few ops, heavy enough for Inf-S to offload *)
      let x = load "X" [ i "i" ] in
      ((((x * x) + x) * x) + (x * fconst 3.0)) * x
    in
    program ~name:"edge_keys" ~params:[ "N"; "BIG" ]
      ~arrays:[ array "X" Dtype.Fp32 [ nv ]; array "Y" Dtype.Fp32 [ nv ]; array "Z" Dtype.Fp32 [ nv ] ]
      [
        Host_loop
          ( loop "a" (c (-2)) (c 2),
            [
              Host_loop
                ( loop "b" big (big +% 2),
                  [
                    Kernel
                      (kernel "wide"
                         [ loop "i" (c 0) (nv +! i "a" +! i "b" -! big +% -4) ]
                         [ store "Y" [ i "i" ] body ]);
                    Kernel
                      (kernel "narrow" [ loop "i" (c 0) (nv +! i "a" +% -4) ] [ store "Z" [ i "i" ] body ]);
                  ] );
            ] );
      ]
  in
  Infinity_stream.Workload.make ~name:"edge_keys"
    ~params:[ ("N", n); ("BIG", 1 lsl 40) ]
    ~inputs:(lazy []) prog

let edge_paradigms = [ E.Base; E.Near_l3; E.In_l3; E.Inf_s ]

(* Negative and wide values take the exact path: shared runs (the second
   one warm) report byte-for-byte what private runs report, which is what
   string-keyed plans reported (the digests of the report JSON). *)
let test_plan_keys_exact_at_edges () =
  let shared = { E.default_options with share_compile = true } in
  E.compile_cache_clear ();
  List.iter2
    (fun p digest ->
      let name = E.paradigm_to_string p in
      let priv = report_json (E.run_exn p (edge_keys ~n:1_048_576)) in
      Alcotest.(check string) (name ^ ": private report") digest
        (Digest.to_hex (Digest.string priv));
      for _ = 1 to 2 do
        Alcotest.(check string) (name ^ ": shared == private") priv
          (report_json (E.run_exn ~options:shared p (edge_keys ~n:1_048_576)))
      done)
    edge_paradigms
    [
      "2b96ba7e39b96910ede4d182b9dd7ac4";
      "1f8e6dd0d43e371b210b0039c1852f62";
      "1ed4362f555be855f6677ece2da8ebee";
      "c7cb1dcdda49f76b972b004faf247341";
    ];
  E.compile_cache_clear ()

(* Two domains released together run one shared program from a cold
   compile cache: one compiles, the other waits for it, and both fill and
   read the one plan store. *)
let test_two_domains_share_a_cold_program () =
  let shared = { E.default_options with share_compile = true } in
  List.iter
    (fun p ->
      let name = E.paradigm_to_string p in
      E.compile_cache_clear ();
      let arrived = Atomic.make 0 in
      let run () =
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do
          Domain.cpu_relax ()
        done;
        report_json (E.run_exn ~options:shared p (edge_keys ~n:1_048_576))
      in
      let d1 = Domain.spawn run and d2 = Domain.spawn run in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      let _, misses, entries = E.compile_cache_stats () in
      Alcotest.(check (pair int int)) (name ^ ": one compile") (1, 1) (misses, entries);
      Alcotest.(check string) (name ^ ": the two domains agree") r1 r2;
      Alcotest.(check string) (name ^ ": shared == private")
        (report_json (E.run_exn p (edge_keys ~n:1_048_576)))
        r1)
    edge_paradigms;
  E.compile_cache_clear ()

(* More distinct invocation keys than a plan table holds: a host loop of
   [plan_store_capacity + 808] iterations over a kernel whose domain reads
   the loop variable. The shared run evicts, counts it, and still reports
   what a private run reports. *)
let test_plan_store_evicts_past_capacity () =
  let iters = E.plan_store_capacity + 808 in
  let w =
    let open Ast in
    let nv = Symaff.var "N" in
    Infinity_stream.Workload.make ~name:"many_keys" ~params:[ ("N", iters) ] ~inputs:(lazy [])
      (program ~name:"many_keys" ~params:[ "N" ]
         ~arrays:[ array "X" Dtype.Fp32 [ nv ]; array "Y" Dtype.Fp32 [ nv ] ]
         [
           Host_loop
             ( loop "a" (c 0) nv,
               [
                 Kernel
                   (kernel "prefix"
                      [ loop "i" (c 0) (i "a" +% 1) ]
                      [ store "Y" [ i "i" ] (load "X" [ i "i" ] + fconst 1.0) ]);
               ] );
         ])
  in
  let shared = { E.default_options with share_compile = true } in
  List.iter
    (fun p ->
      let name = E.paradigm_to_string p in
      E.compile_cache_clear ();
      let got = report_json (E.run_exn ~options:shared p w) in
      let _, _, evictions = E.plan_store_stats () in
      Alcotest.(check bool) (name ^ ": evictions counted") true (evictions > 0);
      Alcotest.(check string) (name ^ ": shared == private") (report_json (E.run_exn p w)) got)
    [ E.Base; E.In_l3 ];
  E.compile_cache_clear ()

let suite =
  [
    Alcotest.test_case "inverted durations emit in order" `Quick
      test_inverted_durations;
    Alcotest.test_case "run_list keeps submission order" `Quick test_run_list_order;
    Alcotest.test_case "timeout fires; pool survives" `Quick test_timeout_fires;
    Alcotest.test_case "ticker parks when idle" `Quick test_ticker_parks_when_idle;
    Alcotest.test_case "exceptions are captured per job" `Quick
      test_exception_capture;
    Alcotest.test_case "submit racing shutdown: every ticket resolves" `Quick
      test_submit_races_shutdown;
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ()) prop_parallel_equals_sequential;
    Alcotest.test_case "backoff delay stays in bounds" `Quick test_backoff_bounds;
    Alcotest.test_case "backoff cap stops exponential growth" `Quick
      test_backoff_caps_growth;
    Alcotest.test_case "backoff jitter is seeded and decorrelated" `Quick
      test_backoff_jitters;
    Alcotest.test_case "backoff 0 disables the sleep" `Quick
      test_backoff_zero_disabled;
    Alcotest.test_case "retries honour the capped backoff" `Quick
      test_retries_with_capped_backoff;
    Alcotest.test_case "ccache basics" `Quick test_ccache_basics;
    Alcotest.test_case "ccache concurrent" `Quick test_ccache_concurrent;
    Alcotest.test_case "concurrent engine runs == sequential" `Quick
      test_concurrent_engine_agreement;
    Alcotest.test_case "concurrent functional runs stay correct" `Quick
      test_concurrent_functional_runs;
    Alcotest.test_case "rng streams are per-instance" `Quick
      test_concurrent_rng_determinism;
    Alcotest.test_case "compile cache shares across paradigms" `Quick
      test_compile_cache_hits;
    Alcotest.test_case "ccache bound: reset, count, recompute" `Quick test_ccache_bound;
    Alcotest.test_case "private runs retain no plans" `Quick
      test_private_runs_retain_nothing;
    Alcotest.test_case "ccache: concurrent misses of a key compute once" `Quick
      test_ccache_concurrent_miss_computes_once;
    Alcotest.test_case "ccache: a raising compute leaves no waiter blocked" `Quick
      test_ccache_raising_compute_wakes_waiters;
    Alcotest.test_case "compile key: constants are exact" `Quick test_compile_key_exact;
    Alcotest.test_case "compile key: rebuilt catalog programs hit" `Quick
      test_compile_key_rebuilt_catalog;
    Alcotest.test_case "plan keys: negative and wide values are exact" `Quick
      test_plan_keys_exact_at_edges;
    Alcotest.test_case "plan store: two domains share a cold program" `Quick
      test_two_domains_share_a_cold_program;
    Alcotest.test_case "plan store: evicts past its capacity" `Quick
      test_plan_store_evicts_past_capacity;
    Alcotest.test_case "ccache: colliding hashes stay exact" `Quick test_ccache_colliding_hashes;
    Alcotest.test_case "run_list ~jobs:1 runs inline, in order" `Quick test_run_list_inline;
  ]
