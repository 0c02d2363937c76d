(* Domain-based worker pool with a sharded Mutex/Condition work queue.

   One shard per worker keeps dequeue contention local; idle workers steal
   from sibling shards. Wakeups use a generation counter: every submit
   bumps [gen] before publishing the job, and a worker that found every
   shard empty re-checks [gen] under its own shard lock before blocking —
   if a job arrived anywhere in between, it rescans instead of sleeping, so
   no wakeup can be lost.

   Timeouts are enforced by a lazily spawned ticker domain that pokes armed
   jobs every couple of milliseconds: a running job past its deadline has
   its outcome forced to [Timed_out] and its waiters broadcast. The worker
   computing it keeps going (domains cannot be preempted) but its late
   result is discarded under the cell lock. While no armed timeout exists
   the ticker parks on [wcv] instead of sleeping in a loop, so a resident
   process (e.g. the serve front end) does not spin a domain at 500 Hz
   forever after its first deadline-bearing job. *)

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

type shard = {
  sm : Mutex.t;
  scv : Condition.t;
  queue : job Queue.t; (* guarded by [sm] *)
}

(* Written only by the owning worker domain; reading after [shutdown] is
   race-free (Domain.join gives the happens-before edge), reads from a live
   pool are advisory. *)
type worker_stats = {
  mutable jobs_run : int;
  mutable busy_s : float;
  mutable wait_s : float; (* summed queue wait of the jobs this worker ran *)
}

type stats = { wall_s : float; workers : (int * float) array }

type t = {
  shards : shard array;
  mutable domains : unit Domain.t list; (* guarded by [glock] *)
  mutable ticker : unit Domain.t option; (* guarded by [glock] *)
  glock : Mutex.t;
  stopped : bool Atomic.t;
  gen : int Atomic.t; (* bumped on every submit: lost-wakeup guard *)
  rr : int Atomic.t; (* round-robin submission cursor *)
  wm : Mutex.t;
  wcv : Condition.t; (* signalled when a watcher is added or at shutdown *)
  mutable watchers : (unit -> bool) list; (* true = expired, drop it *)
  ticks : int Atomic.t; (* ticker iterations with >= 1 armed timeout *)
  subs : int Atomic.t; (* submissions so far: per-job retry-jitter seeds *)
  wstats : worker_stats array; (* one slot per worker, worker-owned *)
  created_at : float;
}

(* all pool durations (busy time, queue wait, timeout deadlines) read the
   clamped monotonic clock: an NTP step must not fire deadlines early or
   record negative busy time *)
let now () = Clock.now ()

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

let jobs t = Array.length t.shards

(* ---- worker side ---- *)

let exec (Job (cell, f, _)) =
  let skip =
    Mutex.protect cell.m (fun () ->
        match cell.result with
        | Some _ -> true (* cancelled before start *)
        | None ->
          cell.started_at <- Some (now ());
          false)
  in
  if not skip then begin
    let r =
      try Ok (f ())
      with
      | Degradation msg -> Error (Degraded msg)
      | e -> Error (Failed (Printexc.to_string e))
    in
    Mutex.protect cell.m (fun () ->
        match cell.result with
        | Some _ -> () (* timed out while running: discard the late result *)
        | None ->
          cell.result <- Some r;
          Condition.broadcast cell.cv)
  end

let try_pop (sh : shard) =
  Mutex.protect sh.sm (fun () -> Queue.take_opt sh.queue)

(* own shard first, then siblings left-to-right from our index *)
let steal t k =
  let n = Array.length t.shards in
  let rec go i =
    if i >= n then None
    else
      match try_pop t.shards.((k + i) mod n) with
      | Some j -> Some j
      | None -> go (i + 1)
  in
  go 0

let rec worker t k =
  match steal t k with
  | Some (Job (_, _, submitted_at) as job) ->
    let t0 = now () in
    exec job;
    let ws = t.wstats.(k) in
    ws.busy_s <- ws.busy_s +. (now () -. t0);
    ws.wait_s <- ws.wait_s +. Float.max 0.0 (t0 -. submitted_at);
    ws.jobs_run <- ws.jobs_run + 1;
    worker t k
  | None ->
    if not (Atomic.get t.stopped) then begin
      let sh = t.shards.(k) in
      let gen0 = Atomic.get t.gen in
      Mutex.lock sh.sm;
      (* block only if no submit landed since our (empty) scan began *)
      if
        (not (Atomic.get t.stopped))
        && Atomic.get t.gen = gen0
        && Queue.is_empty sh.queue
      then Condition.wait sh.scv sh.sm;
      Mutex.unlock sh.sm;
      worker t k
    end

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

let ensure_ticker t =
  Mutex.protect t.glock (fun () ->
      match t.ticker with
      | Some _ -> ()
      | None ->
        if not (Atomic.get t.stopped) then
          t.ticker <- Some (Domain.spawn (fun () -> ticker_loop t)))

(* ---- pool lifecycle ---- *)

let create ?jobs () =
  let n =
    max 1 (match jobs with Some j -> j | None -> recommended_jobs ())
  in
  let t =
    {
      shards =
        Array.init n (fun _ ->
            { sm = Mutex.create (); scv = Condition.create (); queue = Queue.create () });
      domains = [];
      ticker = None;
      glock = Mutex.create ();
      stopped = Atomic.make false;
      gen = Atomic.make 0;
      rr = Atomic.make 0;
      wm = Mutex.create ();
      wcv = Condition.create ();
      watchers = [];
      ticks = Atomic.make 0;
      subs = Atomic.make 0;
      wstats =
        Array.init n (fun _ -> { jobs_run = 0; busy_s = 0.0; wait_s = 0.0 });
      created_at = now ();
    }
  in
  t.domains <- List.init n (fun k -> Domain.spawn (fun () -> worker t k));
  t

let drain_cancelled (sh : shard) =
  let pending = Mutex.protect sh.sm (fun () ->
      let js = List.of_seq (Queue.to_seq sh.queue) in
      Queue.clear sh.queue;
      js)
  in
  List.iter
    (fun (Job (cell, _, _)) ->
      Mutex.protect cell.m (fun () ->
          if cell.result = None then begin
            cell.result <- Some (Error Cancelled);
            Condition.broadcast cell.cv
          end))
    pending

let shutdown t =
  let first = not (Atomic.exchange t.stopped true) in
  if first then begin
    (* wake a parked ticker so it can observe [stopped] and exit *)
    Mutex.protect t.wm (fun () -> Condition.broadcast t.wcv);
    Array.iter drain_cancelled t.shards;
    Array.iter
      (fun sh -> Mutex.protect sh.sm (fun () -> Condition.broadcast sh.scv))
      t.shards;
    let ds, tick =
      Mutex.protect t.glock (fun () ->
          let r = (t.domains, t.ticker) in
          t.domains <- [];
          t.ticker <- None;
          r)
    in
    List.iter Domain.join ds;
    Option.iter Domain.join tick
  end

let stats t =
  {
    wall_s = now () -. t.created_at;
    workers = Array.map (fun ws -> (ws.jobs_run, ws.busy_s)) t.wstats;
  }

let ticker_ticks t = Atomic.get t.ticks

let metrics_into t m =
  let st = stats t in
  Metrics.gauge_add m "pool.wall_s" st.wall_s;
  Array.iteri
    (fun i (jobs_run, busy_s) ->
      let labels = [ ("worker", string_of_int i) ] in
      Metrics.incr m ~labels "pool.worker.jobs" (float_of_int jobs_run);
      Metrics.gauge_add m ~labels "pool.worker.busy_s" busy_s;
      Metrics.gauge_add m ~labels "pool.worker.busy_frac" (busy_s /. Float.max 1e-9 st.wall_s))
    st.workers

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

let default_backoff_cap_s = 30.0

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

let with_retries ~retries ~backoff_s ~cap_s ~seed f () =
  let rng = Rng.create seed in
  let rec go attempt =
    try f ()
    with
    | Degradation _ as e -> raise e
    | _ when attempt < retries ->
      let d = backoff_delay ~backoff_s ~cap_s ~attempt rng in
      if d > 0.0 then Unix.sleepf d;
      go (attempt + 1)
  in
  go 0

let submit t ?(retries = 0) ?(backoff_s = 0.0)
    ?(backoff_cap_s = default_backoff_cap_s) ?timeout_s f =
  if Atomic.get t.stopped then invalid_arg "Pool.submit: pool is shut down";
  let f =
    if retries > 0 then
      (* jitter seed = submission index: deterministic for a caller
         submitting in a fixed order, distinct across concurrent jobs *)
      let seed = Atomic.fetch_and_add t.subs 1 in
      with_retries ~retries ~backoff_s ~cap_s:backoff_cap_s ~seed f
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
  if timeout_s <> None then begin
    Mutex.protect t.wm (fun () ->
        t.watchers <- poke_cell cell :: t.watchers;
        Condition.signal t.wcv);
    ensure_ticker t
  end;
  let n = Array.length t.shards in
  let k = Atomic.fetch_and_add t.rr 1 mod n in
  Atomic.incr t.gen; (* publish intent before the job becomes visible *)
  let sh = t.shards.(k) in
  Mutex.protect sh.sm (fun () -> Queue.push (Job (cell, f, now ())) sh.queue);
  (* a shutdown that raced us may already have drained the queues *)
  if Atomic.get t.stopped then drain_cancelled sh;
  (* wake the home worker, and every sibling that might be idle-stealing *)
  Array.iter
    (fun sh -> Mutex.protect sh.sm (fun () -> Condition.signal sh.scv))
    t.shards;
  cell

let cancel (cell : _ ticket) =
  Mutex.protect cell.m (fun () ->
      match (cell.result, cell.started_at) with
      | None, None ->
        cell.result <- Some (Error Cancelled);
        Condition.broadcast cell.cv;
        true
      | _ -> false)

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

let run_list ?jobs ?retries ?backoff_s ?backoff_cap_s ?timeout_s fs =
  let t = create ?jobs () in
  Fun.protect
    ~finally:(fun () -> shutdown t)
    (fun () ->
      List.map (submit t ?retries ?backoff_s ?backoff_cap_s ?timeout_s) fs
      |> List.map await)
