(** Load generator for the {!Serve} front end (and the sharded {!Shard}
    front tier).

    Opens [connections] connections to a target, paces [rps] requests per
    second (split evenly across connections) for [duration_s] seconds,
    then half-closes the send side and reads every response. Responses
    arrive in request order per connection, so the [k]-th response line
    is matched to the [k]-th request. A latency runs from the moment the
    request was {e due} on the pacing schedule, not from when it was
    actually sent: when the sender falls behind (a stall, a slow
    [body]), the delay counts against every request it held back
    instead of vanishing (no coordinated omission).

    Targets are ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path
    (treated as a Unix-domain socket path) — the same syntax the
    [infs_run serve --client --target] flag accepts.

    Latency quantiles are the caller's job ({!Stats.quantile} on
    {!result.ok_latency_us}); this module only collects. *)

type result = {
  sent : int;
  ok : int;
  overloaded : int;  (** shed by admission control *)
  timeout : int;  (** deadline exceeded server-side *)
  error : int;  (** [status:"error"] responses + unparseable responses *)
  degraded : int;
  cancelled : int;
  unanswered : int;  (** sent but the connection closed before a response *)
  wall_s : float;  (** first send to last response *)
  ok_latency_us : float list;  (** due-to-response latency of [ok] responses *)
  all_latency_us : float list;  (** due-to-response latency of every answered request *)
  ok_reports : (string * string) list;
      (** when [collect_reports > 0]: up to that many
          [(request body, report)] exemplar pairs, one per {e distinct}
          request body, where the report is the response's ["report"]
          member re-serialized canonically ({!Json.to_string}) — so it
          compares byte-for-byte against a direct run of the same spec.
          Empty when collection is off. *)
}

val answered : result -> int
(** [ok + overloaded + timeout + error + degraded + cancelled]. *)

val run :
  socket:string ->
  rps:float ->
  duration_s:float ->
  ?connections:int ->
  ?collect_reports:int ->
  body:(int -> string) ->
  unit ->
  (result, string) Stdlib.result
(** [run ~socket ~rps ~duration_s ~body ()] drives the server. [socket]
    is a target string (["unix:PATH"], ["tcp:HOST:PORT"], or a bare
    Unix-socket path). [body i] is the request line for the [i]-th
    request overall (no trailing newline; must be a single line).
    [connections] defaults to 1 and is clamped to at least 1.
    [collect_reports] (default 0 = off) caps {!result.ok_reports}.
    Fails if any connection cannot be established. *)
