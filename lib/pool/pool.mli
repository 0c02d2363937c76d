(** Fixed-size multicore batch-execution pool ([infs_pool]).

    A pool owns a fixed set of OCaml 5 domains draining a {e sharded} work
    queue (one shard per worker, plain [Mutex]/[Condition], no external
    scheduler dependency). Idle workers steal from sibling shards, so a
    long-running job on one worker never strands jobs queued behind it.

    Guarantees:

    - {b Crash isolation} — an exception raised by a job is captured as
      [Error (Failed _)] in that job's outcome; the worker domain and the
      pool survive.
    - {b Per-job wall-clock timeouts} — a job that runs past its deadline
      has its outcome forced to [Error Timed_out] and waiters are released;
      the job's domain keeps running to completion in the background (OCaml
      domains cannot be preempted) but its late result is discarded.
    - {b Cancellation} — [cancel] removes a not-yet-started job from the
      queue ([Error Cancelled]); jobs already running are not interrupted.
    - {b Deterministic result ordering} — [run_list] returns results in
      submission order regardless of completion order, so parallel output
      is byte-identical to a sequential run.

    The simulator itself stays single-threaded per job; parallelism is
    across independent (workload, paradigm, options) engine runs, which PR
    1's golden traces pinned as deterministic. *)

type error =
  | Failed of string  (** the job raised; carries [Printexc.to_string] *)
  | Timed_out  (** exceeded its wall-clock budget while running *)
  | Cancelled  (** cancelled before a worker picked it up *)
  | Degraded of string
      (** the job raised {!Degradation}: a structured, deterministic "the
          result is degraded" outcome rather than a crash. Never retried. *)

exception Degradation of string
(** Raised by a job to report a {e structured} degraded outcome — e.g. a
    fault-injected run that exhausted its mitigation budget. The pool maps
    it to [Error (Degraded msg)] instead of [Failed], and the per-job retry
    loop does {e not} retry it (the signal is deterministic: retrying would
    re-derive the same degradation). *)

val error_to_string : error -> string

type 'a outcome = ('a, error) result

type t
(** A pool handle. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count], clamped to at least 1 — the default
    for every [--jobs] flag. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains (default
    {!recommended_jobs}). [jobs] is clamped to at least 1. *)

val jobs : t -> int
(** Number of worker domains. *)

val shutdown : t -> unit
(** Drain nothing: wake every worker, wait for jobs already {e running} to
    finish, and join the domains. Queued jobs that never started are
    completed as [Error Cancelled]. Idempotent. Submitting to a shut-down
    pool raises [Invalid_argument]. *)

type stats = {
  wall_s : float;  (** seconds since the pool was created *)
  workers : (int * float) array;
      (** per worker: (jobs run, busy seconds inside jobs) *)
}

val stats : t -> stats
(** Worker utilization counters. Exact once the pool is {!shutdown} (the
    join publishes the workers' writes); on a live pool the values are
    advisory. Busy-fraction per worker is [busy_s /. wall_s]. *)

val metrics_into : t -> Metrics.t -> unit
(** Record {!stats} into a metrics registry: the [pool.wall_s] gauge and,
    per worker (label [worker]), the [pool.worker.jobs] counter and the
    [pool.worker.busy_s] / [pool.worker.busy_frac] gauges. Call after
    {!shutdown}, when the figures are exact. *)

val profile_into : t -> Prof.t -> unit
(** Record per-worker utilization into a profiler registry: for each
    worker [i], paths [pool;worker<i>;busy] (time inside jobs) and
    [pool;worker<i>;queue_wait] (summed submission→start wait of the jobs
    that worker ran), both with the worker's job count. Call {e after}
    {!shutdown} — the join publishes the workers' plain-field counters and
    leaves a single domain touching the (unsynchronized) registry. No-op
    on a disabled registry. *)

val ticker_ticks : t -> int
(** Iterations the timeout-ticker domain has run {e with at least one
    armed timeout}. The ticker parks on a condition variable whenever no
    submitted job has a timeout pending, so on an idle pool this counter
    stops advancing — exposed so tests (and diagnostics) can assert a
    resident server is not spinning a domain. *)

type 'a ticket
(** A handle for one submitted job. *)

val default_backoff_cap_s : float
(** Default [backoff_cap_s] for {!submit}: 30 s. *)

val backoff_delay : backoff_s:float -> cap_s:float -> attempt:int -> Rng.t -> float
(** The retry schedule: a {e full-jitter} capped exponential — a uniform
    draw from [\[0, min cap_s (backoff_s *. 2.{^attempt}))], 0 when
    [backoff_s <= 0]. Exposed for tests and for other layers (shard
    reconnect) that need the same stampede-safe schedule: the raw
    exponential wakes every retrier in lockstep and, uncapped, grows
    without bound. *)

val submit :
  t ->
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_cap_s:float ->
  ?timeout_s:float ->
  (unit -> 'a) ->
  'a ticket
(** Enqueue a job on the least-loaded shard. [timeout_s] is the wall-clock
    budget measured from the moment a worker starts the job.

    [retries] (default 0) re-runs the job inside the {e same} worker slot
    when it raises an ordinary exception, up to [retries] extra attempts,
    sleeping a {!backoff_delay} draw between attempts — a uniform-jitter
    exponential capped at [backoff_cap_s] (default
    {!default_backoff_cap_s}), so concurrent retriers of a common
    transient failure do not wake in lockstep and re-stampede. The jitter
    stream is seeded by submission index, so a job's schedule is
    reproducible and independent of pool scheduling. [backoff_s = 0.0]
    (the default) retries immediately. {!Degradation} is never retried —
    it is a deterministic structured outcome, not a transient crash. The
    whole retry sequence shares one [timeout_s] budget. *)

val cancel : 'a ticket -> bool
(** [cancel tk] is [true] iff the job had not started and is now marked
    [Cancelled] (the worker will skip it). Running or finished jobs return
    [false]. *)

val await : 'a ticket -> 'a outcome
(** Block until the job's outcome is known (completion, timeout firing, or
    cancellation). Safe to call from any domain; repeated calls return the
    same outcome. *)

val run_list :
  ?jobs:int ->
  ?retries:int ->
  ?backoff_s:float ->
  ?backoff_cap_s:float ->
  ?timeout_s:float ->
  (unit -> 'a) list ->
  'a outcome list
(** [run_list fs] runs every thunk on a fresh pool and returns outcomes in
    submission order. The pool is shut down before returning. With
    [~jobs:1] this is sequential execution with the same API.
    [retries]/[backoff_s] apply per job as in {!submit}. *)
