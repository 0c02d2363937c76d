(** The request-serving loop ([infs_serve]): one connection loop behind
    both serving modes.

    A server owns a Unix-domain listening socket (plus, with
    [config.tcp_port], a loopback TCP one) and speaks the batch
    JSON-lines protocol {e persistently}: clients connect, write one JSON
    request object per line, and read exactly one JSON response line per
    request, {e in request order per connection}. What an admitted
    request becomes is the {!handler}'s choice: {!local} runs it on a
    domain pool whose process-wide compile cache stays warm across
    requests (compile once, dispatch many — paper §4); the sharded front
    ({!Shard}) forwards it to a shard process.

    {2 Request lines}

    A response echoes the request's ["id"] (a number or string);
    without one — and for a line that does not parse — the id is the
    request's index among the connection's non-blank lines (0, 1, 2, …).
    A request line longer than 1 MiB (1048576 bytes, newline excluded)
    is answered
    [{"id":<seq>,"status":"error","error":"request line exceeds 1048576 bytes"}]
    and the rest of it is skipped unbuffered; a line that does not parse
    (including JSON nested deeper than 512 levels) is answered
    [{"id":<seq>,"status":"error","error":"parse error: ..."}]. Both count
    as bad requests and the connection stays up. A request carrying a
    ["ping"] field is answered [{"id":..,"status":"pong"}] in order,
    without admission — the front's shard heartbeat.

    {2 Admission, shedding, deadlines}

    A request is admitted iff no drain has begun, fewer than
    [config.queue_depth] admitted requests are unanswered across all
    connections, a ["priority":"low"] request finds less than half of
    the depth in use, and its ["tenant"] holds fewer than
    [config.tenant_quota] unanswered requests. Otherwise it is {e shed}
    immediately with [{"id":..,"status":"overloaded"}]. A request's
    deadline is its ["timeout_s"] field (a positive number; anything else
    is a bad request) or [config.default_timeout_s]; the {!local} handler
    answers [{"id":..,"status":"timeout"}] past it.

    {2 Graceful drain}

    {!request_stop} (async-signal-safe: it only sets a flag) begins a
    drain: the listeners close, every connection's read side is shut
    down, requests already admitted are answered and flushed, then the
    handler stops (the {!local} pool shuts down) and the side files
    ([config.metrics_path], [config.prof_path]) are written. {!wait}
    joins the drain.

    {2 Observability}

    With the handler's prefix [p] ([serve] for {!local}, [shard] for the
    front) the loop counts [p.received], [p.admitted], [p.shed],
    [p.shed_quota], [p.shed_priority], [p.bad_requests], [p.pings],
    [p.connections] and [p.drained], keeps the [p.queue_depth] gauge and
    the [p.latency_us] histogram, and bumps [p.<outcome>] for every
    answered admitted request ([serve.ok], [serve.failed],
    [serve.deadline_exceeded], [serve.degraded], [serve.cancelled];
    [shard.answered]). The server builds one {!Obs.t} handle from an
    always-on registry, [config.trace] and [config.prof]; every counter
    is one [Counter] event through it, folded into the registry and
    written to the trace, so a JSONL trace replays into the same
    registry minus the live-only [p.queue_depth], [p.latency_us] and
    [pool.*] series, which have no event. *)

type config = {
  socket_path : string;  (** Unix-domain socket path to bind *)
  tcp_port : int option;  (** also listen on this loopback TCP port *)
  queue_depth : int;
      (** admission bound: max admitted-but-unanswered requests across
          all connections (clamped to >= 1) *)
  tenant_quota : int option;
      (** max admitted-but-unanswered requests per distinct ["tenant"]
          field; [None] = unlimited *)
  default_timeout_s : float option;
      (** deadline of a request without a ["timeout_s"] field; [None] =
          none *)
  metrics_path : string option;
      (** side file the drain writes the final metrics snapshot to
          (format by {!Metrics.write_file}) *)
  trace : Trace.t;
      (** lifecycle-event sink (default {!Trace.null}); closed by the
          caller, not the server. With the {!local} handler every request
          whose handler ran to completion also emits three [Request_span]
          events — [queue_wait] (admission to worker start), [run]
          (handler execution) and [write_back] (response write + flush) —
          carrying the request's echoed id. Timed-out, cancelled and
          crashed requests emit none, keeping the three stages' counts
          equal. Request spans are host time and are not folded into
          the registry. *)
  prof : Prof.t;
      (** span profiler (default {!Prof.null}): the same three stages as
          [serve;request;<stage>] rows plus, at drain, the {!local} pool's
          per-worker rows ({!Pool.profile_into}). Only touched under the
          server lock, or after the connections have joined. *)
  prof_path : string option;
      (** side file the drain writes the profile to (format by
          {!Prof.write_file}); [None] keeps it in memory *)
}

val default_config : socket_path:string -> config
(** No TCP, [queue_depth = 64], no tenant quota, no default deadline, no
    side files, no trace, no profiler. *)

type stats = {
  connections : int;  (** connections accepted (UDS + TCP) *)
  received : int;  (** request lines read (bad ones included) *)
  admitted : int;
  shed : int;  (** queue-depth (or drain) sheds *)
  shed_quota : int;  (** tenant-quota sheds *)
  shed_priority : int;  (** low-priority sheds *)
  bad : int;  (** over-long, malformed or bad-[timeout_s] lines *)
  ok : int;  (** {!local}: answered [ok] *)
  failed : int;  (** {!local}: the function returned [Error] or raised *)
  deadline_exceeded : int;  (** {!local}: answered [timeout] *)
  degraded : int;  (** {!local}: the function raised {!Pool.Degradation} *)
  cancelled : int;  (** {!local}: admitted but never run — 0 on a graceful drain *)
  pings : int;  (** probes answered [pong] *)
  drained : int;  (** responses written after the drain began *)
}

val answered : stats -> int
(** [ok + failed + deadline_exceeded + degraded + cancelled] — equals
    [admitted] once {!wait} has returned on a {!local} server. *)

type t

type reply = {
  line : string;  (** the response line, without its newline *)
  outcome : string;  (** the counter the answer bumps: [<prefix>.<outcome>] *)
  timing : (float * float) option;
      (** {!Clock.now} when the work started and stopped, for the
          request spans; [None] records none *)
}

type ops = {
  submit : Json.t -> id:Json.t -> timeout_s:float option -> unit -> reply;
      (** [submit request ~id ~timeout_s] starts an admitted request on
          its connection's reader thread and must not block on its
          result; the returned thunk is forced on the writer thread and
          blocks until the reply. [id] is the id the response must echo. *)
  stop : unit -> unit;  (** called once, after every admitted request was answered *)
}

type handler = {
  prefix : string;  (** counter and span namespace *)
  start : t -> (ops, string) result;
      (** called by {!start} after the socket path is checked and before
          the listeners bind; [Error] aborts the start *)
}

val local : jobs:int -> (Json.t -> (Json.t, string) result) -> handler
(** Run each request on a pool of [jobs] worker domains (clamped to
    >= 1) created at start and shut down at drain. [Ok payload] answers
    [{"id":..,"status":"ok","report":payload}]; [Error e] and any other
    exception answer [{"id":..,"status":"error","error":e}]; raising
    {!Pool.Degradation} answers [{"id":..,"status":"degraded","error":..}].
    Prefix [serve]. *)

val start : config -> handler -> (t, string) result
(** Check the socket path (a stale socket file from a dead server is
    unlinked; a non-socket file is an error), start the handler, bind the
    listeners and spawn the accept thread. [SIGPIPE] is ignored
    process-wide (a client hanging up mid-response must not kill the
    server). *)

val request_stop : t -> unit
(** Begin a graceful drain. Only sets a flag — safe to call from a signal
    handler, from any thread, and more than once. *)

val wait : t -> stats
(** Block until the drain completes and return the final statistics.
    Does {e not} itself initiate the stop. *)

val stats : t -> stats
(** Live snapshot of the counters (exact: reads under the server lock). *)

val metrics : t -> Metrics.t
(** The server's metrics registry, e.g. to reconcile a client's counts
    against the series after {!wait}. *)

(** {2 For handlers} *)

val count : t -> string -> unit
(** Emit one [Counter] event through the server's handle (bumping the
    registry counter and writing the trace), under the server lock. *)

val counter : t -> string -> int
(** A counter's current value, read under the server lock. *)

val prof_row : t -> string -> float -> unit
(** [prof_row t path ns] records one profiler call of [ns] nanoseconds
    under the server lock; a no-op without a profiler. *)
