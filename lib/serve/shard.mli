(** Sharded serving front tier ([infs_serve]).

    The front is a {!Serve} server whose handler forwards each admitted
    request to one of [N] shard processes — each a full local {!Serve}
    instance with its own domain pool and warm compile cache — and
    relays the raw reply line. The client protocol, the listeners
    (Unix-domain socket, optionally loopback TCP), admission (queue
    depth, per-tenant quota, low-priority watermark), pings, ids, the
    line and nesting limits and the drain are {!Serve}'s, with counters
    under the [shard.] prefix. The front owns no domain pool: a request
    waits for its shard on the client connection's writer thread.

    {2 Cache-affine routing}

    Requests are routed by a {e consistent hash} of their compile-cache
    key — the canonical JSON of the spec minus the envelope fields
    [id], [timeout_s], [tenant], [priority] and [ping] — over a ring
    with 64 virtual points per shard. Repeat submissions of the same
    program therefore land on the shard whose compile cache already
    holds its binary ([shard.route_hot]); a dead shard only moves its
    own arc of the keyspace ([shard.route_moved]).

    {2 Crash resilience}

    A shard connection EOF (process crash) or a missed heartbeat (no
    pong for 3 heartbeat periods forces the connection shut) parks the
    shard's in-flight requests and {e re-dispatches} each to a healthy
    shard, at most [redispatch_max] times per request — exhaustion (or
    no healthy shard within 10 s) answers a structured [error]
    response, so no admitted request is ever silently dropped. The
    shard backend is respawned with capped full-jitter reconnect backoff
    ({!Pool.backoff_delay}). A re-dispatched request may execute twice;
    engine runs are pure, so the duplicate is wasted work, not a
    correctness hazard.

    {2 Byte identity}

    The front forwards each request with its id pinned (the shard echoes
    the client's id) and never reparses or reprints a shard response:
    responses are matched to requests by per-shard-connection FIFO order
    (valid because {!Serve} answers in request order per connection) and
    the raw line is forwarded verbatim, so reports served through the
    front are byte-identical to a direct {!Serve} run.

    {2 Observability}

    Besides the loop's [shard.*] counters ({!Serve}; answered requests
    bump [shard.answered]), the front counts [shard.route_hot],
    [shard.route_cold], [shard.route_moved], [shard.redispatched],
    [shard.lost], [shard.crashes], [shard.respawns], [shard.hb_sent] and
    [shard.hb_pong] — each also a same-named {!Trace} [Counter] event —
    and records a [shard;request;proxy] {!Prof} row per answered
    request. *)

type backend =
  | Proc of (int -> string -> string array)
      (** [argv_of shard_index socket_path]: the front spawns one child
          process per shard via {!Proc.spawn} (fork+exec — safe under
          OCaml 5 domains/threads) and respawns crashed ones with the
          same closure. The child must serve the JSON-lines protocol on
          [socket_path] (i.e. [infs_run serve --socket socket_path]). *)
  | Inproc of (Json.t -> (Json.t, string) result)
      (** each shard is an in-process {!Serve} instance running this
          function on a one-domain {!Serve.local} pool, with the front's
          default deadline — the unit-test backend (no child processes). *)

type stats = {
  connections : int;  (** client connections accepted (UDS + TCP) *)
  received : int;  (** request lines read *)
  admitted : int;  (** entered the front's bounded queue *)
  shed : int;  (** queue-depth (or drain) sheds *)
  shed_quota : int;  (** tenant-quota sheds *)
  shed_priority : int;  (** low-priority watermark sheds *)
  bad : int;  (** over-long, malformed or bad-[timeout_s] lines *)
  pings : int;  (** probes answered by the front itself *)
  answered : int;  (** shard responses forwarded to clients *)
  route_hot : int;  (** routed to the shard that ran the key last *)
  route_cold : int;  (** first sighting of a key *)
  route_moved : int;  (** a key's owner changed (crash / ring walk) *)
  redispatched : int;  (** parked requests re-sent to a healthy shard *)
  lost : int;
      (** answered with a front-generated [error] after exhausting the
          re-dispatch budget — never silently dropped *)
  crashes : int;  (** shard connections lost outside orderly shutdown *)
  respawns : int;  (** successful shard backend respawns *)
  hb_sent : int;
  hb_pong : int;
  drained : int;  (** responses forwarded after the drain began *)
}

val shed_total : stats -> int
(** [shed + shed_quota + shed_priority]. *)

type t

val start :
  Serve.config ->
  shards:int ->
  ?redispatch_max:int ->
  ?heartbeat_s:float ->
  backend ->
  (t, string) result
(** Start a front with [shards] shards (clamped to >= 1) on [config]'s
    listeners. Shard [i] serves on [config.socket_path ^ ".shard<i>"].
    Every shard is brought up (spawn + connect) before the listeners
    bind; an unreachable shard fails the start and tears the rest down.
    [redispatch_max] (default 2) is the re-dispatch budget per request;
    [heartbeat_s] pings each shard that often ([None]: no heartbeats —
    EOF detection still catches hard crashes). *)

val request_stop : t -> unit
(** Begin a graceful drain ({!Serve.request_stop}). The drain answers
    everything already admitted (the shards stay up exactly that long),
    then stops the shard backends gracefully and flushes the side files. *)

val wait : t -> stats
(** Join the drain and return the final statistics. [answered = admitted]
    on a clean drain: every admitted request got a response ([lost]
    counts the subset answered via the front-generated error path). *)

val stats : t -> stats
(** Live snapshot (each counter read under the server lock). *)

val metrics : t -> Metrics.t

(** {2 Introspection and fault-injection hooks (tests, soak harness)} *)

val kill_shard : t -> int -> unit
(** Hard-kill shard [i]'s backend ([SIGKILL] for [Proc]; abrupt
    connection severance for [Inproc]) — in-flight requests on it are
    parked and re-dispatched, and the backend respawns. Raises
    [Invalid_argument] on an out-of-range index. *)

val shard_alive : t -> int -> bool
val shard_pending : t -> int -> int
(** In-flight requests currently awaiting shard [i]'s responses. *)

val shard_pids : t -> int option list
(** Per shard: the backend's pid ([Proc] only; [None] for [Inproc] or a
    shard currently down). *)
