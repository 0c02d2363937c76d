(* Domain-based worker pool over one FIFO queue under one Mutex/Condition.

   Workers pop under the lock and park on the condition while the queue is
   empty; [submit] pushes and signals under the lock; [shutdown] sets the
   stopped flag and cancels every queued job under the same lock. One lock
   orders a submit against a shutdown: the submit lands first (the job
   then runs or is cancelled) or it sees the flag and raises. A queue
   operation holds the lock for well under a microsecond and a job runs
   for a millisecond or more, so the one lock does not contend.

   Timeouts are enforced by a lazily spawned ticker domain that pokes armed
   jobs every couple of milliseconds: a running job past its deadline has
   its outcome forced to [Timed_out] and its waiters broadcast. The worker
   computing it keeps going (domains cannot be preempted) but its late
   result is discarded under the cell lock. While no armed timeout exists
   the ticker parks on [wcv] instead of sleeping in a loop, so a resident
   process (e.g. the serve front end) does not spin a domain at 500 Hz
   forever after its first deadline-bearing job. OCaml 5.1's [Condition]
   has no timed wait, so the ticker needs its own domain. *)

type error = Failed of string | Timed_out | Cancelled | Degraded of string

exception Degradation of string

let error_to_string = function
  | Failed msg -> "failed: " ^ msg
  | Timed_out -> "timed out"
  | Cancelled -> "cancelled"
  | Degraded msg -> "degraded: " ^ msg

type 'a outcome = ('a, error) result

(* Shared between the submitter, one worker, the ticker and any awaiters.
   [result]/[started_at] are guarded by [m]; [cv] signals result arrival. *)
type 'a cell = {
  m : Mutex.t;
  cv : Condition.t;
  mutable result : 'a outcome option;
  mutable started_at : float option;
  timeout_s : float option;
}

type 'a ticket = 'a cell

(* [submitted_at] feeds the per-worker queue-wait accounting: the gap
   between submission and a worker starting the job. *)
type job = Job : 'a cell * (unit -> 'a) * float -> job

(* Written only by the owning worker domain; reading after [shutdown] is
   race-free (Domain.join gives the happens-before edge), reads from a live
   pool are advisory. *)
type worker_stats = {
  mutable jobs_run : int;
  mutable busy_s : float;
  mutable wait_s : float; (* summed queue wait of the jobs this worker ran *)
}

type t = {
  qm : Mutex.t;
  qcv : Condition.t; (* signalled on a push, broadcast at shutdown *)
  queue : job Queue.t; (* guarded by [qm] *)
  stopped : bool Atomic.t; (* set under [qm]; the ticker reads it bare *)
  mutable domains : unit Domain.t list; (* set once, by [create] *)
  wm : Mutex.t;
  wcv : Condition.t; (* signalled when a watcher is added or at shutdown *)
  mutable watchers : (unit -> bool) list; (* guarded by [wm]; true = expired, drop it *)
  mutable ticker : unit Domain.t option; (* guarded by [wm] *)
  ticks : int Atomic.t; (* ticker iterations with >= 1 armed timeout *)
  subs : int Atomic.t; (* retrying submissions so far: their jitter seeds *)
  wstats : worker_stats array; (* one slot per worker, worker-owned *)
  created_at : float;
}

(* all pool durations (busy time, queue wait, timeout deadlines) read the
   clamped monotonic clock: an NTP step must not fire deadlines early or
   record negative busy time *)
let now () = Clock.now ()

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

(* ---- worker side ---- *)

(* The one exception mapping, on a worker and in an inline [run_list]. *)
let run_job f =
  try Ok (f ()) with
  | Degradation msg -> Error (Degraded msg)
  | e -> Error (Failed (Printexc.to_string e))

let exec (Job (cell, f, _)) =
  Mutex.protect cell.m (fun () -> cell.started_at <- Some (now ()));
  let r = run_job f in
  Mutex.protect cell.m (fun () ->
      (* a job that timed out while running keeps its [Timed_out] *)
      if Option.is_none cell.result then begin
        cell.result <- Some r;
        Condition.broadcast cell.cv
      end)

(* Pop the next job, parking while the queue is empty; [None] once the
   pool is stopped (shutdown has emptied the queue by then). *)
let next t =
  Mutex.protect t.qm (fun () ->
      while Queue.is_empty t.queue && not (Atomic.get t.stopped) do
        Condition.wait t.qcv t.qm
      done;
      Queue.take_opt t.queue)

let rec worker t k =
  match next t with
  | None -> ()
  | Some (Job (_, _, submitted_at) as job) ->
    let t0 = now () in
    exec job;
    let ws = t.wstats.(k) in
    ws.busy_s <- ws.busy_s +. (now () -. t0);
    ws.wait_s <- ws.wait_s +. Float.max 0.0 (t0 -. submitted_at);
    ws.jobs_run <- ws.jobs_run + 1;
    worker t k

(* ---- ticker (timeout enforcement) ---- *)

let poke_cell cell () =
  Mutex.protect cell.m (fun () ->
      match (cell.result, cell.started_at, cell.timeout_s) with
      | Some _, _, _ -> true
      | None, Some t0, Some lim when now () -. t0 >= lim ->
        cell.result <- Some (Error Timed_out);
        Condition.broadcast cell.cv;
        true
      | _ -> false)

let rec ticker_loop t =
  if not (Atomic.get t.stopped) then begin
    let armed =
      Mutex.protect t.wm (fun () ->
          t.watchers <- List.filter (fun poke -> not (poke ())) t.watchers;
          t.watchers <> [])
    in
    if armed then begin
      Atomic.incr t.ticks;
      Unix.sleepf 0.002
    end
    else begin
      (* park until the next timeout-armed submit (or shutdown) — an idle
         resident pool must not busy-wake this domain *)
      Mutex.lock t.wm;
      while t.watchers = [] && not (Atomic.get t.stopped) do
        Condition.wait t.wcv t.wm
      done;
      Mutex.unlock t.wm
    end;
    ticker_loop t
  end

(* Watch [cell]'s deadline. The ticker is spawned under [wm] and never
   once the pool is stopped: [shutdown] reads [ticker] under [wm] after
   setting the flag, so a submit racing it cannot leave a ticker domain
   that nothing joins. *)
let arm t cell =
  Mutex.protect t.wm (fun () ->
      t.watchers <- poke_cell cell :: t.watchers;
      Condition.signal t.wcv;
      if Option.is_none t.ticker && not (Atomic.get t.stopped) then
        t.ticker <- Some (Domain.spawn (fun () -> ticker_loop t)))

(* ---- pool lifecycle ---- *)

let create ?jobs () =
  let n =
    max 1 (match jobs with Some j -> j | None -> recommended_jobs ())
  in
  let t =
    {
      qm = Mutex.create ();
      qcv = Condition.create ();
      queue = Queue.create ();
      stopped = Atomic.make false;
      domains = [];
      wm = Mutex.create ();
      wcv = Condition.create ();
      watchers = [];
      ticker = None;
      ticks = Atomic.make 0;
      subs = Atomic.make 0;
      wstats =
        Array.init n (fun _ -> { jobs_run = 0; busy_s = 0.0; wait_s = 0.0 });
      created_at = now ();
    }
  in
  t.domains <- List.init n (fun k -> Domain.spawn (fun () -> worker t k));
  t

let cancel_queued (Job (cell, _, _)) =
  Mutex.protect cell.m (fun () ->
      cell.result <- Some (Error Cancelled);
      Condition.broadcast cell.cv)

let shutdown t =
  let first =
    Mutex.protect t.qm (fun () ->
        if Atomic.get t.stopped then false
        else begin
          Atomic.set t.stopped true;
          Queue.iter cancel_queued t.queue;
          Queue.clear t.queue;
          Condition.broadcast t.qcv;
          true
        end)
  in
  if first then begin
    (* wake a parked ticker so it can observe [stopped] and exit *)
    let ticker =
      Mutex.protect t.wm (fun () ->
          Condition.broadcast t.wcv;
          t.ticker)
    in
    List.iter Domain.join t.domains;
    Option.iter Domain.join ticker
  end

let ticker_ticks t = Atomic.get t.ticks

let metrics_into t m =
  let wall_s = now () -. t.created_at in
  Metrics.gauge_add m "pool.wall_s" wall_s;
  Array.iteri
    (fun i ws ->
      let labels = [ ("worker", string_of_int i) ] in
      Metrics.incr m ~labels "pool.worker.jobs" (float_of_int ws.jobs_run);
      Metrics.gauge_add m ~labels "pool.worker.busy_s" ws.busy_s;
      Metrics.gauge_add m ~labels "pool.worker.busy_frac" (ws.busy_s /. Float.max 1e-9 wall_s))
    t.wstats

(* Per-worker queue-wait vs busy time as profiler rows. Worker stats are
   worker-owned plain fields, so this must only run once the domains have
   joined ([shutdown] gives the happens-before edge); at that point the
   registry is touched from one domain only and [record_path] is safe. *)
let profile_into t prof =
  if Prof.enabled prof then
    Array.iteri
      (fun i ws ->
        let p name = Printf.sprintf "pool;worker%d;%s" i name in
        Prof.record_path prof (p "busy") ~count:ws.jobs_run
          ~ns:(ws.busy_s *. 1e9) ();
        Prof.record_path prof (p "queue_wait") ~count:ws.jobs_run
          ~ns:(ws.wait_s *. 1e9) ())
      t.wstats

(* ---- submission / results ---- *)

(* Retry-with-backoff runs inside the worker, so the whole retry sequence
   counts against one job slot (and one timeout budget). [Degradation] is a
   deterministic structured signal — the job itself decided the result is
   degraded — so it is never retried; ordinary exceptions (transient
   crashes) are, with capped full-jitter exponential backoff between
   attempts. *)

let backoff_cap_s = 30.0

(* Full jitter: attempt [k] sleeps a uniform draw from
   [0, min cap (backoff * 2^k)). The raw exponential alone is a stampede
   amplifier — N workers (or shards) hitting one transient failure all
   recompute the same schedule and wake in lockstep, re-arriving together
   at every attempt; uncapped, the lockstep sleeps also grow without
   bound. Jitter decorrelates the wakeups, the cap bounds the worst-case
   stall. The draw comes from a caller-seeded stream, so a given job's
   retry schedule is reproducible and independent of scheduling. *)
let backoff_delay ~backoff_s ~cap_s ~attempt rng =
  if backoff_s <= 0.0 then 0.0
  else
    let cap = Float.max 0.0 cap_s in
    Rng.float rng (Float.min cap (backoff_s *. (2.0 ** float_of_int attempt)))

let with_retries ~retries ~backoff_s ~seed f () =
  let rng = Rng.create seed in
  let rec go attempt =
    try f ()
    with
    | Degradation _ as e -> raise e
    | _ when attempt < retries ->
      let d = backoff_delay ~backoff_s ~cap_s:backoff_cap_s ~attempt rng in
      if d > 0.0 then Unix.sleepf d;
      go (attempt + 1)
  in
  go 0

let submit t ?(retries = 0) ?(backoff_s = 0.0) ?timeout_s f =
  let f =
    if retries > 0 then
      (* jitter seed = submission index: deterministic for a caller
         submitting in a fixed order, distinct across concurrent jobs *)
      let seed = Atomic.fetch_and_add t.subs 1 in
      with_retries ~retries ~backoff_s ~seed f
    else f
  in
  let cell =
    {
      m = Mutex.create ();
      cv = Condition.create ();
      result = None;
      started_at = None;
      timeout_s;
    }
  in
  Mutex.protect t.qm (fun () ->
      if Atomic.get t.stopped then invalid_arg "Pool.submit: pool is shut down";
      Queue.push (Job (cell, f, now ())) t.queue;
      Condition.signal t.qcv);
  if Option.is_some timeout_s then arm t cell;
  cell

let await (cell : _ ticket) =
  Mutex.lock cell.m;
  let rec loop () =
    match cell.result with
    | Some r -> r
    | None ->
      Condition.wait cell.cv cell.m;
      loop ()
  in
  let r = loop () in
  Mutex.unlock cell.m;
  r

let run_list ~jobs fs =
  if jobs <= 1 then List.map run_job fs
  else
    let t = create ~jobs () in
    Fun.protect
      ~finally:(fun () -> shutdown t)
      (fun () -> List.map (fun f -> submit t f) fs |> List.map await)
