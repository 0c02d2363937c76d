(** Fixed-size multicore batch-execution pool ([infs_pool]).

    A pool owns a fixed set of OCaml 5 domains draining one FIFO work
    queue under one [Mutex] and one [Condition] (no external scheduler
    dependency). Jobs start in submission order; a long-running job on one
    worker never strands the jobs queued behind it, since every idle
    worker pops from the same queue.

    Guarantees:

    - {b Crash isolation} — an exception raised by a job is captured as
      [Error (Failed _)] in that job's outcome; the worker domain and the
      pool survive.
    - {b Per-job wall-clock timeouts} — a job that runs past its deadline
      has its outcome forced to [Error Timed_out] and waiters are released;
      the job's domain keeps running to completion in the background (OCaml
      domains cannot be preempted) but its late result is discarded.
    - {b Submit versus shutdown} — one lock orders them: a submit either
      lands first, and the shutdown then runs it or completes it as
      [Error Cancelled], or it raises [Invalid_argument]. Every ticket
      {!submit} returns resolves.
    - {b Deterministic result ordering} — [run_list] returns results in
      submission order regardless of completion order, so parallel output
      is byte-identical to a sequential run.

    The simulator itself stays single-threaded per job; parallelism is
    across independent (workload, paradigm, options) engine runs, which
    the golden traces pin as deterministic. *)

type error =
  | Failed of string  (** the job raised; carries [Printexc.to_string] *)
  | Timed_out  (** exceeded its wall-clock budget while running *)
  | Cancelled  (** still queued when the pool was shut down *)
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
    {!recommended_jobs}). [jobs] is clamped to at least 1: even one job
    gets its own worker domain, so {!submit} never blocks its caller. *)

val shutdown : t -> unit
(** Drain nothing: wake every worker, wait for jobs already {e running} to
    finish, and join the domains. Queued jobs that never started are
    completed as [Error Cancelled]. Idempotent. Submitting to a shut-down
    pool raises [Invalid_argument]. *)

val metrics_into : t -> Metrics.t -> unit
(** Record worker utilization into a metrics registry: the [pool.wall_s]
    gauge (seconds since {!create}) and, per worker (label [worker]), the
    [pool.worker.jobs] counter and the [pool.worker.busy_s] /
    [pool.worker.busy_frac] gauges. Call after {!shutdown}, when the
    figures are exact (the join publishes the workers' writes). *)

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
  ?timeout_s:float ->
  (unit -> 'a) ->
  'a ticket
(** Append a job to the queue. [timeout_s] is the wall-clock budget
    measured from the moment a worker starts the job.

    [retries] (default 0) re-runs the job inside the {e same} worker slot
    when it raises an ordinary exception, up to [retries] extra attempts,
    sleeping a {!backoff_delay} draw between attempts — a uniform-jitter
    exponential capped at 30 s, so concurrent retriers of a common
    transient failure do not wake in lockstep and re-stampede. The jitter
    stream is seeded by submission index, so a job's schedule is
    reproducible and independent of pool scheduling. [backoff_s = 0.0]
    (the default) retries immediately. {!Degradation} is never retried —
    it is a deterministic structured outcome, not a transient crash. The
    whole retry sequence shares one [timeout_s] budget. *)

val await : 'a ticket -> 'a outcome
(** Block until the job's outcome is known (completion, timeout firing, or
    cancellation at shutdown). Safe to call from any domain; repeated
    calls return the same outcome. *)

val run_list : jobs:int -> (unit -> 'a) list -> 'a outcome list
(** [run_list ~jobs fs] runs every thunk and returns outcomes in
    submission order. With [jobs <= 1] the thunks run in order on the
    calling domain; otherwise on a fresh pool of [jobs] domains, shut down
    before returning. Either way a raise becomes [Error (Failed _)] and
    {!Degradation} [Error (Degraded _)], through the same mapping a worker
    applies. *)
