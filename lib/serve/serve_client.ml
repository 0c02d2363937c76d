(* Load generator: one sender + one receiver thread per connection.

   The sender paces requests on a fixed schedule (request k of connection
   c is due at t0 + (c + k*C)/rps, i.e. the C connections interleave to a
   combined rps) and half-closes the socket when the duration elapses;
   the receiver matches the k-th response line to the k-th request's due
   time — valid because the server answers in request order per
   connection. *)

type result = {
  sent : int;
  ok : int;
  overloaded : int;
  timeout : int;
  error : int;
  degraded : int;
  cancelled : int;
  unanswered : int;
  wall_s : float;
  ok_latency_us : float list;
  all_latency_us : float list;
  ok_reports : (string * string) list;
}

let answered r = r.ok + r.overloaded + r.timeout + r.error + r.degraded + r.cancelled

let empty =
  {
    sent = 0;
    ok = 0;
    overloaded = 0;
    timeout = 0;
    error = 0;
    degraded = 0;
    cancelled = 0;
    unanswered = 0;
    wall_s = 0.0;
    ok_latency_us = [];
    all_latency_us = [];
    ok_reports = [];
  }

let merge a b =
  {
    sent = a.sent + b.sent;
    ok = a.ok + b.ok;
    overloaded = a.overloaded + b.overloaded;
    timeout = a.timeout + b.timeout;
    error = a.error + b.error;
    degraded = a.degraded + b.degraded;
    cancelled = a.cancelled + b.cancelled;
    unanswered = a.unanswered + b.unanswered;
    wall_s = Float.max a.wall_s b.wall_s;
    ok_latency_us = a.ok_latency_us @ b.ok_latency_us;
    all_latency_us = a.all_latency_us @ b.all_latency_us;
    ok_reports =
      (* distinct request bodies only: connections cycling the same spec
         list contribute one exemplar report each *)
      a.ok_reports
      @ List.filter
          (fun (body, _) -> not (List.mem_assoc body a.ok_reports))
          b.ok_reports;
  }

(* monotonic: send-to-response latencies must survive a wall-clock step *)
let now () = Clock.now ()

(* growable float array: due times, indexed by response order *)
type dyn = { mutable a : float array; mutable n : int }

let dyn_make hint = { a = Array.make (max 16 hint) 0.0; n = 0 }

let dyn_add d v =
  if d.n = Array.length d.a then begin
    let a' = Array.make (2 * d.n) 0.0 in
    Array.blit d.a 0 a' 0 d.n;
    d.a <- a'
  end;
  d.a.(d.n) <- v;
  d.n <- d.n + 1

(* "unix:PATH", "tcp:HOST:PORT", or a bare path (= unix) *)
type target = T_unix of string | T_tcp of string * int

let parse_target s =
  let prefixed p = String.length s > String.length p && String.sub s 0 (String.length p) = p in
  let after p = String.sub s (String.length p) (String.length s - String.length p) in
  if prefixed "unix:" then Ok (T_unix (after "unix:"))
  else if prefixed "tcp:" then begin
    let rest = after "tcp:" in
    match String.rindex_opt rest ':' with
    | None -> Error "serve-client: tcp target must be tcp:HOST:PORT"
    | Some i -> (
      let host = String.sub rest 0 i in
      match int_of_string_opt (String.sub rest (i + 1) (String.length rest - i - 1)) with
      | Some port when port > 0 && port < 65536 -> Ok (T_tcp (host, port))
      | _ -> Error "serve-client: tcp port must be in 1..65535")
  end
  else Ok (T_unix s)

let connect_sock domain addr what =
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "serve-client: cannot connect to %s: %s" what
         (Unix.error_message e))

let connect target =
  match parse_target target with
  | Error _ as e -> e
  | Ok (T_unix path) -> connect_sock Unix.PF_UNIX (Unix.ADDR_UNIX path) path
  | Ok (T_tcp (host, port)) -> (
    match
      Unix.getaddrinfo host (string_of_int port)
        [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
    with
    | [] -> Error (Printf.sprintf "serve-client: cannot resolve %s" host)
    | ai :: _ ->
      connect_sock ai.Unix.ai_family ai.Unix.ai_addr
        (Printf.sprintf "%s:%d" host port))

(* one connection's drive; returns its partial result *)
let drive ~t0 ~rps ~duration_s ~conns ~c ~body ~collect fd =
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  let times = dyn_make (int_of_float (rps *. duration_s /. float_of_int conns) + 16) in
  let sent = ref 0 in
  let sender () =
    let rec go k =
      let due = float_of_int (c + (k * conns)) /. rps in
      if due < duration_s then begin
        let dt = t0 +. due -. now () in
        if dt > 0.0 then Unix.sleepf dt;
        let i = c + (k * conns) in
        (* stamped when due, not when sent: a late sender's delay is part
           of every latency it causes (no coordinated omission) *)
        dyn_add times (t0 +. due);
        match
          output_string oc (body i);
          output_char oc '\n';
          flush oc
        with
        | () ->
          incr sent;
          go (k + 1)
        | exception Sys_error _ -> () (* server went away; stop sending *)
      end
    in
    go 0;
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
  in
  let st = Thread.create sender () in
  let r = ref empty in
  let rec recv k =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | line ->
      let tn = now () in
      let lat_us = (tn -. times.a.(min k (times.n - 1))) *. 1e6 in
      let parsed = Json.parse line in
      let status =
        match parsed with
        | Error _ -> "error"
        | Ok j -> (
          match Option.bind (Json.member "status" j) Json.to_str with
          | Some s -> s
          | None -> "error")
      in
      let a = !r in
      let reports =
        (* re-serialized via Json.to_string, so an exemplar compares
           byte-for-byte against a direct run's canonical report line *)
        if status <> "ok" || collect <= 0 || List.length a.ok_reports >= collect
        then a.ok_reports
        else
          let body_line = body (c + (k * conns)) in
          if List.mem_assoc body_line a.ok_reports then a.ok_reports
          else
            match Result.to_option parsed with
            | None -> a.ok_reports
            | Some j -> (
              match Json.member "report" j with
              | None -> a.ok_reports
              | Some rep -> (body_line, Json.to_string rep) :: a.ok_reports)
      in
      r :=
        {
          a with
          wall_s = tn -. t0;
          all_latency_us = lat_us :: a.all_latency_us;
          ok = (a.ok + if status = "ok" then 1 else 0);
          overloaded = (a.overloaded + if status = "overloaded" then 1 else 0);
          timeout = (a.timeout + if status = "timeout" then 1 else 0);
          degraded = (a.degraded + if status = "degraded" then 1 else 0);
          cancelled = (a.cancelled + if status = "cancelled" then 1 else 0);
          error =
            (a.error
            +
            match status with
            | "ok" | "overloaded" | "timeout" | "degraded" | "cancelled" -> 0
            | _ -> 1);
          ok_latency_us =
            (if status = "ok" then lat_us :: a.ok_latency_us
             else a.ok_latency_us);
          ok_reports = reports;
        };
      recv (k + 1)
  in
  recv 0;
  Thread.join st;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  let a = !r in
  { a with sent = !sent; unanswered = !sent - answered a }

let run ~socket ~rps ~duration_s ?(connections = 1) ?(collect_reports = 0) ~body () =
  if rps <= 0.0 then Error "serve-client: rps must be positive"
  else if duration_s <= 0.0 then Error "serve-client: duration must be positive"
  else begin
    let conns = max 1 connections in
    let fds = List.init conns (fun _ -> connect socket) in
    match List.find_opt Result.is_error fds with
    | Some (Error e) ->
      List.iter
        (function
          | Ok fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
          | Error _ -> ())
        fds;
      Error e
    | _ ->
      let fds = List.map Result.get_ok fds in
      let t0 = now () in
      let cells = List.map (fun _ -> ref empty) fds in
      List.combine fds cells
      |> List.mapi (fun c (fd, cell) ->
             Thread.create
               (fun () ->
                 cell :=
                   drive ~t0 ~rps ~duration_s ~conns ~c ~body
                     ~collect:collect_reports fd)
               ())
      |> List.iter Thread.join;
      Ok (List.fold_left (fun acc cell -> merge acc !cell) empty cells)
  end
