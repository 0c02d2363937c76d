(* Sharded serving front: a {!Serve} handler that forwards each admitted
   request to one of N shard processes and relays the raw reply line.
   Each shard is a full local {!Serve} instance owning its own domain
   pool and warm compile cache; the front owns no pool and never blocks
   a worker on a shard. Routing is a consistent hash of the request's
   compile-cache key — the canonical JSON of the spec minus envelope
   fields (id, timeout_s, tenant, priority, ping) — so repeat
   submissions of a program land on the shard whose cache already holds
   its compiled binary.

   [submit] (on the client connection's reader thread) writes the
   request to the routed shard and appends it to the slot's FIFO; the
   slot's reader thread resolves each FIFO entry's cell with the next
   raw response line — valid because a shard answers in request order
   per connection — and the client writer forwards the line verbatim,
   so served reports stay byte-identical to direct runs.

   Crash handling: a shard connection EOF (process death, or a heartbeat
   expiry forcing the fd shut) bumps the slot's generation, parks the
   FIFO's in-flight requests, re-dispatches each to a healthy shard
   (bounded by [redispatch_max] per request; exhaustion answers a
   structured error so no admitted request is ever silently lost) and
   respawns the shard backend with capped-jitter reconnect backoff.

   Lock order (never nested in the other direction): slot [s_m] -> cell
   mutex. The front lock [fm] and the server lock are leaf-only. *)

type backend =
  | Proc of (int -> string -> string array)
  | Inproc of (Json.t -> (Json.t, string) result)

(* budget for a (re)spawned shard to bind + accept, and for a parked
   request to find a healthy shard *)
let connect_timeout_s = 10.0

type stats = {
  connections : int;
  received : int;
  admitted : int;
  shed : int;
  shed_quota : int;
  shed_priority : int;
  bad : int;
  pings : int;
  answered : int;
  route_hot : int;
  route_cold : int;
  route_moved : int;
  redispatched : int;
  lost : int;
  crashes : int;
  respawns : int;
  hb_sent : int;
  hb_pong : int;
  drained : int;
}

let shed_total s = s.shed + s.shed_quota + s.shed_priority

(* ---- response cells ---- *)

(* one-shot rendezvous between the shard reader (producer of the raw
   response line) and the client writer (consumer); first resolution
   wins — a late duplicate from a double-dispatched request is dropped *)
type cell = { cm : Mutex.t; ccv : Condition.t; mutable resp : string option }

let resolve cell line =
  Mutex.protect cell.cm (fun () ->
      if cell.resp = None then cell.resp <- Some line;
      Condition.signal cell.ccv)

let await_cell cell =
  Mutex.lock cell.cm;
  while cell.resp = None do
    Condition.wait cell.ccv cell.cm
  done;
  let v = Option.get cell.resp in
  Mutex.unlock cell.cm;
  v

(* ---- shard slots ---- *)

type sink = Client of cell | Heartbeat

type pending = {
  p_line : string;  (* exact line written to the shard *)
  p_key : string;  (* routing key = compile-cache key *)
  p_id : Json.t;  (* echoed id, for front-generated failure responses *)
  p_sink : sink;
  p_dispatches : int;  (* dispatch attempts so far, >= 1 once sent *)
}

type handle = {
  h_pid : int option;
  h_kill : unit -> unit;  (* hard stop: in-flight work lost by design *)
  h_stop : unit -> unit;  (* graceful stop and wait *)
}

type slot = {
  s_idx : int;
  s_m : Mutex.t;
  mutable s_alive : bool;
  mutable s_gen : int;  (* bumped on every disconnect; dedupes crash events *)
  mutable s_fd : Unix.file_descr option;
  mutable s_oc : out_channel option;
  s_fifo : pending Queue.t;  (* requests awaiting this shard's response *)
  mutable s_handle : handle option;
  mutable s_last_pong : float;
}

type t = {
  srv : Serve.t;
  cfg : Serve.config;
  backend : backend;
  redispatch_max : int;
  slots : slot array;
  ring : (int64 * int) array;  (* (point, shard), sorted by unsigned point *)
  closing : bool Atomic.t;  (* shard teardown begun: suppress crash handling *)
  fm : Mutex.t;  (* guards routes, aux *)
  routes : (string, int) Hashtbl.t;  (* key -> shard it last ran on *)
  mutable aux : Thread.t list;  (* shard readers, respawners, heartbeat *)
  hb_seq : int Atomic.t;
}

let now () = Clock.now ()
let count t name = Serve.count t.srv name
let track t th = Mutex.protect t.fm (fun () -> t.aux <- th :: t.aux)

(* ---- consistent hash ring ---- *)

let fnv1a64 s =
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let vnodes = 64

let build_ring shards =
  let pts =
    Array.init (shards * vnodes) (fun i ->
        let shard = i / vnodes and v = i mod vnodes in
        (fnv1a64 (Printf.sprintf "%d#%d" shard v), shard))
  in
  Array.sort (fun (a, _) (b, _) -> Int64.unsigned_compare a b) pts;
  pts

(* First ring point at or after the key's hash whose shard is alive
   (skipping [avoid]); walking clockwise past dead shards keeps the rest
   of the keyspace stable — only the dead shard's arc moves. *)
let route t ~key ~avoid =
  let n = Array.length t.ring in
  let h = fnv1a64 key in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.ring.(mid)) h < 0 then lo := mid + 1 else hi := mid
  done;
  let start = !lo in
  let rec walk i seen =
    if i >= n then None
    else
      let _, s = t.ring.((start + i) mod n) in
      if List.mem s seen then walk (i + 1) seen
      else if s <> avoid && Mutex.protect t.slots.(s).s_m (fun () -> t.slots.(s).s_alive) then
        Some t.slots.(s)
      else walk (i + 1) (s :: seen)
  in
  walk 0 []

(* hot = key ran on this shard last time (its compile cache is warm);
   moved = the key's owner changed (crash or ring walk); cold = new key.
   The table is advisory routing telemetry, bounded to keep the front's
   memory flat over long soaks. *)
let note_route t ~key shard =
  let name =
    Mutex.protect t.fm (fun () ->
        if Hashtbl.length t.routes > 65536 then Hashtbl.reset t.routes;
        let name =
          match Hashtbl.find_opt t.routes key with
          | Some s when s = shard -> "shard.route_hot"
          | Some _ -> "shard.route_moved"
          | None -> "shard.route_cold"
        in
        Hashtbl.replace t.routes key shard;
        name)
  in
  count t name

(* ---- dispatch ---- *)

(* FIFO push and socket write are atomic under [s_m], so the FIFO order
   is exactly the order the shard sees (and answers) requests in. A
   failed write leaves the entry parked: the reader's EOF sweeps it into
   the re-dispatch path. Holding [s_m] across the write cannot deadlock:
   the shard's reader never blocks on its send side (admission shedding
   is non-blocking), so shard receive buffers always drain. *)
let try_dispatch slot p =
  Mutex.protect slot.s_m (fun () ->
      if not slot.s_alive then false
      else
        match slot.s_oc with
        | None -> false
        | Some oc ->
          Queue.push p slot.s_fifo;
          (try
             output_string oc p.p_line;
             output_char oc '\n';
             flush oc
           with Sys_error _ -> ());
          true)

let lose t p cell reason =
  count t "shard.lost";
  resolve cell
    (Json.to_string
       (Json.Obj [ ("id", p.p_id); ("status", Json.Str "error"); ("error", Json.Str reason) ]))

(* Bounded re-dispatch of a request parked on a dead shard. The request
   may execute twice (the dead shard could have finished it without
   answering); engine runs are pure, so the duplicate work is wasted but
   harmless, and the cell keeps only the first response. *)
let redispatch t ~from p =
  match p.p_sink with
  | Heartbeat -> ()
  | Client cell ->
    if p.p_dispatches > t.redispatch_max then
      lose t p cell "shard failed; re-dispatch budget exhausted"
    else begin
      count t "shard.redispatched";
      let p = { p with p_dispatches = p.p_dispatches + 1 } in
      (* brief bounded wait for a respawn when no sibling is healthy *)
      let deadline = now () +. connect_timeout_s in
      let rec go () =
        match route t ~key:p.p_key ~avoid:from with
        | Some slot when try_dispatch slot p -> note_route t ~key:p.p_key slot.s_idx
        | _ ->
          if now () > deadline || Atomic.get t.closing then
            lose t p cell "no healthy shard to re-dispatch to"
          else begin
            Unix.sleepf 0.01;
            go ()
          end
      in
      go ()
    end

(* ---- shard crash / respawn ---- *)

let slot_socket t i ~gen =
  let base = Printf.sprintf "%s.shard%d" t.cfg.Serve.socket_path i in
  match t.backend with
  | Proc _ -> base (* the respawned child unlinks the stale socket itself *)
  | Inproc _ ->
    (* a gracefully-draining old Serve instance unlinks its own socket
       path asynchronously; a fresh per-generation path avoids the race *)
    if gen = 0 then base else Printf.sprintf "%s.g%d" base gen

let spawn_handle t i socket =
  match t.backend with
  | Proc argv_of ->
    let child = Proc.spawn (argv_of i socket) in
    {
      h_pid = Some (Proc.pid child);
      h_kill = (fun () -> ignore (Proc.kill child));
      h_stop = (fun () -> ignore (Proc.terminate child));
    }
  | Inproc fn -> (
    let cfg =
      { (Serve.default_config ~socket_path:socket) with default_timeout_s = t.cfg.default_timeout_s }
    in
    match Serve.start cfg (Serve.local ~jobs:1 fn) with
    | Error e -> failwith e
    | Ok sv ->
      {
        h_pid = None;
        h_kill =
          (fun () ->
            (* simulate a crash: stop accepting and reap in the
               background; the front severs its connection separately,
               so the old instance's late answers go nowhere *)
            Serve.request_stop sv;
            ignore (Thread.create (fun () -> ignore (Serve.wait sv)) ()));
        h_stop =
          (fun () ->
            Serve.request_stop sv;
            ignore (Serve.wait sv));
      })

(* the shard's replies are trusted child output and reports can be
   large, so this reader is not line-capped *)
let rec shard_reader t slot gen ic =
  match input_line ic with
  | exception (End_of_file | Sys_error _) -> shard_down t slot ~gen
  | line ->
    let p =
      Mutex.protect slot.s_m (fun () ->
          if slot.s_gen <> gen then None else Queue.take_opt slot.s_fifo)
    in
    (match p with
    | None -> () (* stale generation, or an unsolicited line: drop *)
    | Some { p_sink = Heartbeat; _ } ->
      Mutex.protect slot.s_m (fun () -> slot.s_last_pong <- now ());
      count t "shard.hb_pong"
    | Some { p_sink = Client cell; _ } -> resolve cell line);
    if Mutex.protect slot.s_m (fun () -> slot.s_gen = gen) then shard_reader t slot gen ic

and shard_down t slot ~gen =
  let victims =
    Mutex.protect slot.s_m (fun () ->
        if slot.s_gen <> gen then [] (* another path already handled it *)
        else begin
          slot.s_gen <- gen + 1;
          slot.s_alive <- false;
          Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) slot.s_fd;
          slot.s_fd <- None;
          slot.s_oc <- None;
          let vs = List.of_seq (Queue.to_seq slot.s_fifo) in
          Queue.clear slot.s_fifo;
          vs
        end)
  in
  if Atomic.get t.closing then
    (* orderly teardown: every client cell was answered before it began;
       anything left is a heartbeat, but answer defensively regardless *)
    List.iter
      (fun p ->
        match p.p_sink with
        | Heartbeat -> ()
        | Client cell -> lose t p cell "front tier shutting down")
      victims
  else begin
    count t "shard.crashes";
    List.iter (redispatch t ~from:slot.s_idx) victims;
    track t (Thread.create (fun () -> respawner t slot) ())
  end

and respawner t slot =
  let rec attempts left =
    if (not (Atomic.get t.closing)) && left > 0 then
      match bringup t slot with
      | Ok () -> count t "shard.respawns"
      | Error e ->
        Printf.eprintf "shard %d: respawn failed: %s\n%!" slot.s_idx e;
        Unix.sleepf 0.2;
        attempts (left - 1)
  in
  attempts 5

(* Spawn (or respawn) the backend and connect with capped full-jitter
   backoff — the same stampede-safe schedule as pool retries — until the
   child has bound its socket. *)
and bringup t slot =
  let gen = Mutex.protect slot.s_m (fun () -> slot.s_gen) in
  let socket = slot_socket t slot.s_idx ~gen in
  let rng = Rng.create ((slot.s_idx * 7919) + gen) in
  match spawn_handle t slot.s_idx socket with
  | exception e ->
    Error (Printf.sprintf "cannot spawn shard %d: %s" slot.s_idx (Printexc.to_string e))
  | handle -> (
    let deadline = now () +. connect_timeout_s in
    let rec conn attempt =
      if Atomic.get t.closing then Error "front tier shutting down"
      else begin
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX socket) with
        | () -> Ok fd
        | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if now () > deadline then
            Error
              (Printf.sprintf "shard %d (%s): connect timed out: %s" slot.s_idx socket
                 (Unix.error_message e))
          else begin
            Unix.sleepf
              (Float.max 0.002 (Pool.backoff_delay ~backoff_s:0.005 ~cap_s:0.25 ~attempt rng));
            conn (attempt + 1)
          end
      end
    in
    match conn 0 with
    | Error e ->
      handle.h_kill ();
      Error e
    | Ok fd ->
      let ic = Unix.in_channel_of_descr fd in
      Mutex.protect slot.s_m (fun () ->
          slot.s_fd <- Some fd;
          slot.s_oc <- Some (Unix.out_channel_of_descr fd);
          slot.s_handle <- Some handle;
          slot.s_alive <- true;
          slot.s_last_pong <- now ());
      track t (Thread.create (fun () -> shard_reader t slot gen ic) ());
      Ok ())

(* ---- heartbeats ---- *)

let heartbeater t h =
  while not (Atomic.get t.closing) do
    Unix.sleepf h;
    if not (Atomic.get t.closing) then
      Array.iter
        (fun slot ->
          let action =
            Mutex.protect slot.s_m (fun () ->
                if not slot.s_alive then `Skip
                else if now () -. slot.s_last_pong > 3.0 *. h then `Expire slot.s_fd
                else `Ping)
          in
          match action with
          | `Skip | `Expire None -> ()
          | `Expire (Some fd) -> (
            (* missed-heartbeat detection: force the reader to EOF; the
               crash path then re-dispatches and respawns *)
            try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
          | `Ping ->
            let id = Json.Str (Printf.sprintf "hb-%d" (Atomic.fetch_and_add t.hb_seq 1)) in
            let line = Json.to_string (Json.Obj [ ("ping", Json.Num 1.0); ("id", id) ]) in
            let p = { p_line = line; p_key = ""; p_id = id; p_sink = Heartbeat; p_dispatches = 1 } in
            if try_dispatch slot p then count t "shard.hb_sent")
        t.slots
  done

(* ---- the handler ---- *)

let envelope_fields = [ "id"; "timeout_s"; "tenant"; "priority"; "ping" ]

let route_key j =
  match j with
  | Json.Obj kvs ->
    Json.to_string (Json.Obj (List.filter (fun (k, _) -> not (List.mem k envelope_fields)) kvs))
  | _ -> Json.to_string j

(* The shard applies the request's own timeout_s (or its default). *)
let submit t j ~id ~timeout_s:_ =
  let t0 = now () in
  (* forward with the id pinned (shards must echo the client's id, not
     their per-connection sequence); other fields pass through *)
  let fwd =
    match j with
    | Json.Obj kvs -> Json.Obj (("id", id) :: List.filter (fun (k, _) -> k <> "id") kvs)
    | other -> other
  in
  let cell = { cm = Mutex.create (); ccv = Condition.create (); resp = None } in
  let p =
    { p_line = Json.to_string fwd; p_key = route_key j; p_id = id; p_sink = Client cell; p_dispatches = 1 }
  in
  (match route t ~key:p.p_key ~avoid:(-1) with
  | Some slot when try_dispatch slot p -> note_route t ~key:p.p_key slot.s_idx
  | _ ->
    (* the routed shard died between the route and the write: reuse the
       bounded re-dispatch path (counts as a re-dispatch) *)
    redispatch t ~from:(-1) p);
  fun () ->
    let line = await_cell cell in
    Serve.prof_row t.srv "shard;request;proxy" ((now () -. t0) *. 1e9);
    { Serve.line; outcome = "answered"; timing = None }

(* After every admitted request was answered (or on a failed start): the
   shards stay up exactly that long. *)
let stop t =
  Atomic.set t.closing true;
  Array.iter
    (fun slot ->
      let handle, fd =
        Mutex.protect slot.s_m (fun () ->
            let h = slot.s_handle in
            slot.s_handle <- None;
            slot.s_alive <- false;
            (h, slot.s_fd))
      in
      Option.iter (fun h -> h.h_stop ()) handle;
      Option.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()) fd)
    t.slots;
  List.iter Thread.join (Mutex.protect t.fm (fun () -> t.aux))

let start cfg ~shards ?(redispatch_max = 2) ?heartbeat_s backend =
  let shards = max 1 shards in
  let front = ref None in
  let start srv =
    let t =
      {
        srv;
        cfg;
        backend;
        redispatch_max = max 0 redispatch_max;
        slots =
          Array.init shards (fun i ->
              {
                s_idx = i;
                s_m = Mutex.create ();
                s_alive = false;
                s_gen = 0;
                s_fd = None;
                s_oc = None;
                s_fifo = Queue.create ();
                s_handle = None;
                s_last_pong = 0.0;
              });
        ring = build_ring shards;
        closing = Atomic.make false;
        fm = Mutex.create ();
        routes = Hashtbl.create 1024;
        aux = [];
        hb_seq = Atomic.make 0;
      }
    in
    front := Some t;
    (* bring every shard up before accepting any client *)
    let rec bring i =
      if i >= shards then Ok ()
      else match bringup t t.slots.(i) with Ok () -> bring (i + 1) | Error _ as e -> e
    in
    match bring 0 with
    | Error e ->
      stop t;
      Error e
    | Ok () ->
      (match heartbeat_s with
      | Some h when h > 0.0 -> track t (Thread.create (fun () -> heartbeater t h) ())
      | _ -> ());
      Ok { Serve.submit = submit t; stop = (fun () -> stop t) }
  in
  Result.map (fun _ -> Option.get !front) (Serve.start cfg { Serve.prefix = "shard"; start })

let request_stop t = Serve.request_stop t.srv
let metrics t = Serve.metrics t.srv

let stats t =
  let v s = Serve.counter t.srv ("shard." ^ s) in
  {
    connections = v "connections";
    received = v "received";
    admitted = v "admitted";
    shed = v "shed";
    shed_quota = v "shed_quota";
    shed_priority = v "shed_priority";
    bad = v "bad_requests";
    pings = v "pings";
    answered = v "answered";
    route_hot = v "route_hot";
    route_cold = v "route_cold";
    route_moved = v "route_moved";
    redispatched = v "redispatched";
    lost = v "lost";
    crashes = v "crashes";
    respawns = v "respawns";
    hb_sent = v "hb_sent";
    hb_pong = v "hb_pong";
    drained = v "drained";
  }

let wait t =
  ignore (Serve.wait t.srv);
  stats t

(* ---- test hooks ---- *)

let slot t i what =
  if i < 0 || i >= Array.length t.slots then invalid_arg what;
  t.slots.(i)

let kill_shard t i =
  let slot = slot t i "Shard.kill_shard" in
  let handle, fd =
    Mutex.protect slot.s_m (fun () ->
        let h = slot.s_handle in
        slot.s_handle <- None;
        (h, slot.s_fd))
  in
  Option.iter (fun h -> h.h_kill ()) handle;
  (* sever the connection so the reader sees EOF even for an in-process
     backend whose graceful drain would otherwise still answer *)
  Option.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ()) fd

let shard_pending t i =
  let slot = slot t i "Shard.shard_pending" in
  Mutex.protect slot.s_m (fun () -> Queue.length slot.s_fifo)

let shard_alive t i =
  let slot = slot t i "Shard.shard_alive" in
  Mutex.protect slot.s_m (fun () -> slot.s_alive)

let shard_pids t =
  Array.to_list
    (Array.map
       (fun slot -> Mutex.protect slot.s_m (fun () -> Option.bind slot.s_handle (fun h -> h.h_pid)))
       t.slots)
