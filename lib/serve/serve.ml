(* The one connection loop behind both serving modes.

   Thread layout: one accept thread watches the listeners (the
   Unix-domain socket, plus loopback TCP with [tcp_port]); each
   connection gets a reader thread (bounded line read, parse, admission,
   handler submission) and a writer thread (await each reply in request
   order, account it, write it). What an admitted request becomes is the
   handler's business: [local] runs it on a domain pool, the sharded
   front ({!Shard}) forwards it to a shard process and relays the raw
   reply line. Threads are systhreads blocked on I/O or condition
   variables; no request work runs on them.

   Admission is one function under the server lock: a request is
   admitted iff no drain has begun, fewer than [queue_depth] admitted
   requests are unanswered, a low-priority request finds less than half
   the depth in use, and its tenant holds fewer than [tenant_quota]
   slots. The slot is released when the reply is accounted (not when
   the work finishes), so the bound also caps every connection's
   response backlog.

   Drain: [request_stop] sets a flag; the accept thread notices, closes
   the listeners, shuts down every connection's read side (blocked
   readers see EOF), joins the connection threads — writers answer
   everything already admitted first — then stops the handler and
   flushes the side files. The server lock [mm] is leaf-only: nothing
   else is ever locked while it is held. *)

type config = {
  socket_path : string;
  tcp_port : int option;
  queue_depth : int;
  tenant_quota : int option;
  default_timeout_s : float option;
  metrics_path : string option;
  trace : Trace.t;
  prof : Prof.t;
  prof_path : string option;
}

let default_config ~socket_path =
  {
    socket_path;
    tcp_port = None;
    queue_depth = 64;
    tenant_quota = None;
    default_timeout_s = None;
    metrics_path = None;
    trace = Trace.null;
    prof = Prof.null;
    prof_path = None;
  }

type stats = {
  connections : int;
  received : int;
  admitted : int;
  shed : int;
  shed_quota : int;
  shed_priority : int;
  bad : int;
  ok : int;
  failed : int;
  deadline_exceeded : int;
  degraded : int;
  cancelled : int;
  pings : int;
  drained : int;
}

let answered s = s.ok + s.failed + s.deadline_exceeded + s.degraded + s.cancelled

type reply = { line : string; outcome : string; timing : (float * float) option }

type t = {
  cfg : config;
  pfx : string;  (* counter and span namespace, from the handler *)
  stop_requested : bool Atomic.t;
  mm : Mutex.t;  (* guards obs (registry, trace, prof), inflight, tenants, draining, conns *)
  obs : Obs.t;  (* the run's handle: always-on registry, cfg.trace, cfg.prof *)
  tenants : (string, int) Hashtbl.t;  (* admitted-but-unanswered per tenant *)
  mutable inflight : int;  (* admitted, reply not yet accounted *)
  mutable draining : bool;
  mutable conns : (Unix.file_descr * Thread.t * Thread.t) list;
  mutable accept_thread : Thread.t option;
}

and handler = { prefix : string; start : t -> (ops, string) result }

and ops = {
  submit : Json.t -> id:Json.t -> timeout_s:float option -> unit -> reply;
  stop : unit -> unit;
}

(* monotonic: request latencies and queue-wait/run splits must survive a
   wall-clock step without going negative *)
let now () = Clock.now ()

let name t s = t.pfx ^ "." ^ s

(* one Counter event: the handle folds it into the registry and writes it
   to the trace; caller holds [mm] *)
let count_locked t name = Obs.emit t.obs (Trace.Counter { name; value = 1.0 })

let metrics t = Obs.metrics t.obs
let count t name = Mutex.protect t.mm (fun () -> count_locked t name)
let counter t name = Mutex.protect t.mm (fun () -> int_of_float (Metrics.value (metrics t) name))

let prof_row t path ns =
  if Prof.enabled t.cfg.prof then
    Mutex.protect t.mm (fun () -> Prof.record_path t.cfg.prof path ~ns ())

let status_line id status extra =
  Json.to_string (Json.Obj (("id", id) :: ("status", Json.Str status) :: extra))

(* ---- the local handler: run requests on a domain pool ---- *)

let local ~jobs fn =
  let start t =
    let pool = Pool.create ~jobs:(max 1 jobs) () in
    let submit j ~id ~timeout_s =
      let tk =
        Pool.submit pool ?timeout_s (fun () ->
            let start = now () in
            let r = fn j in
            (start, now (), r))
      in
      fun () ->
        let reply ?timing outcome status extra =
          { line = status_line id status extra; outcome; timing }
        in
        match Pool.await tk with
        | Ok (start, stop, Ok payload) ->
          reply ~timing:(start, stop) "ok" "ok" [ ("report", payload) ]
        | Ok (start, stop, Error e) ->
          reply ~timing:(start, stop) "failed" "error" [ ("error", Json.Str e) ]
        (* timed-out, cancelled and crashed runs have no reliable timing *)
        | Error (Pool.Failed e) -> reply "failed" "error" [ ("error", Json.Str e) ]
        | Error Pool.Timed_out -> reply "deadline_exceeded" "timeout" []
        | Error (Pool.Degraded e) -> reply "degraded" "degraded" [ ("error", Json.Str e) ]
        | Error Pool.Cancelled -> reply "cancelled" "cancelled" []
    in
    (* after the shutdown joins the workers their counters are exact and
       this is the only domain touching the registries *)
    let stop () =
      Pool.shutdown pool;
      Mutex.protect t.mm (fun () -> Pool.metrics_into pool (metrics t));
      Pool.profile_into pool t.cfg.prof
    in
    Ok { submit; stop }
  in
  { prefix = "serve"; start }

(* ---- connection: writer side ---- *)

type entry = {
  e_id : Json.t;  (* echoed request id (or the connection's line sequence) *)
  e_t0 : float;  (* when the request line was read *)
  e_admitted : bool;
  e_tenant : string option;  (* the tenant slot an admitted request holds *)
  e_reply : unit -> reply;
}

type conn = {
  c_fd : Unix.file_descr;
  c_qm : Mutex.t;
  c_qcv : Condition.t;
  c_q : entry option Queue.t;  (* None = reader done, flush and close *)
}

let push conn v =
  Mutex.protect conn.c_qm (fun () ->
      Queue.push v conn.c_q;
      Condition.signal conn.c_qcv)

let pop conn =
  Mutex.lock conn.c_qm;
  while Queue.is_empty conn.c_q do
    Condition.wait conn.c_qcv conn.c_qm
  done;
  let v = Queue.pop conn.c_q in
  Mutex.unlock conn.c_qm;
  v

(* One lifecycle-stage span: a [Request_span] trace event (host time, so
   never folded into the registry) and a [<prefix>;request;<stage>]
   profiler row, under [mm] (the prof registry, like the trace sink, is
   unsynchronized). *)
let request_span t id stage us =
  if Trace.enabled t.cfg.trace || Prof.enabled t.cfg.prof then
    Mutex.protect t.mm (fun () ->
        if Trace.enabled t.cfg.trace then
          Obs.emit t.obs (Trace.Request_span { request = Json.to_string id; stage; us });
        if Prof.enabled t.cfg.prof then
          Prof.record_path t.cfg.prof (t.pfx ^ ";request;" ^ stage) ~ns:(us *. 1e3) ())

(* Shed and malformed requests were counted when the reader answered
   them, so only admitted entries bump outcome counters here. *)
let account t e r =
  (match r.timing with
  | None -> ()
  | Some (start, stop) ->
    request_span t e.e_id "queue_wait" ((start -. e.e_t0) *. 1e6);
    request_span t e.e_id "run" ((stop -. start) *. 1e6));
  let lat_us = (now () -. e.e_t0) *. 1e6 in
  Mutex.protect t.mm (fun () ->
      if e.e_admitted then begin
        count_locked t (name t r.outcome);
        (* live-only: queue depth and host latency have no event *)
        Metrics.gauge_add (metrics t) (name t "queue_depth") (-1.0);
        Metrics.observe (metrics t) (name t "latency_us") lat_us;
        t.inflight <- t.inflight - 1;
        Option.iter
          (fun tn ->
            match Hashtbl.find_opt t.tenants tn with
            | Some n when n > 1 -> Hashtbl.replace t.tenants tn (n - 1)
            | _ -> Hashtbl.remove t.tenants tn)
          e.e_tenant
      end;
      if t.draining then count_locked t (name t "drained"))

let writer t conn oc =
  let rec loop () =
    match pop conn with
    | None -> ()
    | Some e ->
      let r = e.e_reply () in
      account t e r;
      (* a client that hung up must not stop us from awaiting (and
         accounting) the rest of its admitted requests *)
      let w0 = now () in
      (try
         output_string oc r.line;
         output_char oc '\n';
         flush oc
       with Sys_error _ -> ());
      (* write_back closes the span triple; replies without timing emit
         no spans at all, so every stage has the same event count *)
      if r.timing <> None then request_span t e.e_id "write_back" ((now () -. w0) *. 1e6);
      loop ()
  in
  loop ();
  (try flush oc with Sys_error _ -> ());
  try Unix.close conn.c_fd with Unix.Unix_error _ -> ()

(* ---- connection: reader side ---- *)

let max_line_bytes = 1 lsl 20

(* The next line, at most [max_line_bytes] long; the rest of an over-long
   line is skipped up to its newline without being buffered. *)
let read_line ic =
  let b = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' -> `Line (Buffer.contents b)
    | c when Buffer.length b < max_line_bytes ->
      Buffer.add_char b c;
      go ()
    | _ -> skip ()
    | exception (End_of_file | Sys_error _) ->
      if Buffer.length b = 0 then `Eof else `Line (Buffer.contents b)
  and skip () =
    match input_char ic with
    | '\n' -> `Too_long
    | _ -> skip ()
    | exception (End_of_file | Sys_error _) -> `Too_long
  in
  go ()

(* Queue depth, then the low-priority watermark (half the depth), then
   the tenant quota; under [mm]. *)
let admit t ~tenant ~low =
  Mutex.protect t.mm (fun () ->
      let held tn = Option.value ~default:0 (Hashtbl.find_opt t.tenants tn) in
      let shed =
        if t.draining || t.inflight >= t.cfg.queue_depth then Some "shed"
        else if low && t.inflight >= t.cfg.queue_depth / 2 then Some "shed_priority"
        else
          match (t.cfg.tenant_quota, tenant) with
          | Some q, Some tn when held tn >= q -> Some "shed_quota"
          | _ -> None
      in
      match shed with
      | Some s ->
        count_locked t (name t s);
        false
      | None ->
        t.inflight <- t.inflight + 1;
        Option.iter (fun tn -> Hashtbl.replace t.tenants tn (held tn + 1)) tenant;
        count_locked t (name t "admitted");
        Metrics.gauge_add (metrics t) (name t "queue_depth") 1.0;
        true)

let request_timeout t j =
  match Json.member "timeout_s" j with
  | None -> Ok t.cfg.default_timeout_s
  | Some v -> (
    match Json.to_num v with
    | Some f when Float.is_finite f && f > 0.0 -> Ok (Some f)
    | _ -> Error "field timeout_s must be a finite positive number")

(* [line] is [None] for an over-long line *)
let handle_line t ops conn seq line =
  let t0 = now () in
  let answer id status extra =
    let r = { line = status_line id status extra; outcome = ""; timing = None } in
    push conn
      (Some { e_id = id; e_t0 = t0; e_admitted = false; e_tenant = None; e_reply = (fun () -> r) })
  in
  let bad id msg =
    count t (name t "bad_requests");
    answer id "error" [ ("error", Json.Str msg) ]
  in
  let seq_id = Json.Num (float_of_int seq) in
  count t (name t "received");
  match Option.map (fun l -> Json.parse (String.trim l)) line with
  | None -> bad seq_id (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)
  | Some (Error e) -> bad seq_id ("parse error: " ^ e)
  | Some (Ok j) -> (
    let id =
      match Json.member "id" j with Some ((Json.Num _ | Json.Str _) as v) -> v | _ -> seq_id
    in
    if Json.member "ping" j <> None then begin
      (* liveness probe (the front's shard heartbeat): answered in order
         with real responses, without touching admission *)
      count t (name t "pings");
      answer id "pong" []
    end
    else
      match request_timeout t j with
      | Error e -> bad id e
      | Ok timeout_s ->
        let tenant = Option.bind (Json.member "tenant" j) Json.to_str in
        let low = Option.bind (Json.member "priority" j) Json.to_str = Some "low" in
        if admit t ~tenant ~low then
          push conn
            (Some
               {
                 e_id = id;
                 e_t0 = t0;
                 e_admitted = true;
                 e_tenant = tenant;
                 e_reply = ops.submit j ~id ~timeout_s;
               })
        else answer id "overloaded" [])

let reader t ops conn ic =
  let rec loop seq =
    match read_line ic with
    | `Eof -> ()
    | `Too_long ->
      handle_line t ops conn seq None;
      loop (seq + 1)
    | `Line l when String.trim l = "" -> loop seq
    | `Line l ->
      handle_line t ops conn seq (Some l);
      loop (seq + 1)
  in
  loop 0;
  push conn None

let spawn_conn t ops fd =
  let conn = { c_fd = fd; c_qm = Mutex.create (); c_qcv = Condition.create (); c_q = Queue.create () } in
  let wt = Thread.create (fun () -> writer t conn (Unix.out_channel_of_descr fd)) () in
  let rt = Thread.create (fun () -> reader t ops conn (Unix.in_channel_of_descr fd)) () in
  Mutex.protect t.mm (fun () ->
      t.conns <- (fd, rt, wt) :: t.conns;
      count_locked t (name t "connections"))

(* ---- accept loop & drain ---- *)

let drain t ops lfds =
  Mutex.protect t.mm (fun () -> t.draining <- true);
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) lfds;
  (try Unix.unlink t.cfg.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  let conns = Mutex.protect t.mm (fun () -> t.conns) in
  (* blocked readers see EOF; writers then answer everything admitted *)
  List.iter
    (fun (fd, _, _) -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  List.iter
    (fun (_, rt, wt) ->
      Thread.join rt;
      Thread.join wt)
    conns;
  ops.stop ();
  Option.iter
    (fun path ->
      Mutex.protect t.mm (fun () -> try Metrics.write_file (metrics t) path with Sys_error _ -> ()))
    t.cfg.metrics_path;
  Option.iter
    (fun path -> try Prof.write_file t.cfg.prof path with Sys_error _ -> ())
    t.cfg.prof_path

let accept_loop t ops lfds =
  while not (Atomic.get t.stop_requested) do
    match Unix.select lfds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun lfd ->
          match Unix.accept ~cloexec:true lfd with
          | exception Unix.Unix_error _ -> ()
          | fd, _ -> spawn_conn t ops fd)
        ready
  done;
  drain t ops lfds

(* ---- lifecycle ---- *)

let bindable path =
  match Unix.stat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    (* a previous server's stale socket: the bind would fail with
       EADDRINUSE even though nobody is listening *)
    try Ok (Unix.unlink path)
    with Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "serve: cannot unlink stale socket %s: %s" path (Unix.error_message e)))
  | _ -> Error (Printf.sprintf "serve: %s exists and is not a socket" path)

let listen cfg =
  let bind domain addr what =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match
      if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd addr;
      Unix.listen fd 64
    with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "serve: cannot bind %s: %s" what (Unix.error_message e))
  in
  match bind Unix.PF_UNIX (Unix.ADDR_UNIX cfg.socket_path) cfg.socket_path with
  | Error _ as e -> e
  | Ok ufd -> (
    match cfg.tcp_port with
    | None -> Ok [ ufd ]
    | Some port -> (
      match
        bind Unix.PF_INET
          (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
          (Printf.sprintf "tcp port %d" port)
      with
      | Ok tfd -> Ok [ ufd; tfd ]
      | Error e ->
        (try Unix.close ufd with Unix.Unix_error _ -> ());
        (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
        Error e))

let start cfg (h : handler) =
  let cfg = { cfg with queue_depth = max 1 cfg.queue_depth } in
  match bindable cfg.socket_path with
  | Error e -> Error e
  | Ok () -> (
    (* a client hanging up mid-response must not kill the process *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let t =
      {
        cfg;
        pfx = h.prefix;
        stop_requested = Atomic.make false;
        mm = Mutex.create ();
        obs =
          Obs.create ~trace:cfg.trace ~metrics:(Metrics.create ()) ~prof:cfg.prof
            ~geometry:Metrics.default_geometry;
        tenants = Hashtbl.create 16;
        inflight = 0;
        draining = false;
        conns = [];
        accept_thread = None;
      }
    in
    match h.start t with
    | Error e -> Error e
    | Ok ops -> (
      match listen cfg with
      | Error e ->
        ops.stop ();
        Error e
      | Ok lfds ->
        t.accept_thread <- Some (Thread.create (fun () -> accept_loop t ops lfds) ());
        Ok t))

let request_stop t = Atomic.set t.stop_requested true

let stats t =
  Mutex.protect t.mm (fun () ->
      let v s = int_of_float (Metrics.value (metrics t) (name t s)) in
      {
        connections = v "connections";
        received = v "received";
        admitted = v "admitted";
        shed = v "shed";
        shed_quota = v "shed_quota";
        shed_priority = v "shed_priority";
        bad = v "bad_requests";
        ok = v "ok";
        failed = v "failed";
        deadline_exceeded = v "deadline_exceeded";
        degraded = v "degraded";
        cancelled = v "cancelled";
        pings = v "pings";
        drained = v "drained";
      })

let wait t =
  Option.iter Thread.join t.accept_thread;
  stats t
