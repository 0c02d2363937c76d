(* The harness's own load generator for the serving front tier: at most
   two threads (a pacing sender and this receiver) over a few loopback TCP
   connections.

   Every request line carries a unique "id" that the server echoes, so
   replies are matched by id rather than by arrival order. The receiver
   only stamps and stores raw lines while a phase runs; parsing happens
   afterwards, off the timed path.

   Open loop: request [i] is due at [t0 + i/rps] whether or not earlier
   replies arrived, and its latency is measured from that due time, so a
   server stall also charges the requests queued behind it. The
   library's [Serve_client] stamps the actual send time instead, which
   hides such stalls (coordinated omission); how late this generator
   itself sent is reported as [lag]. *)

let now = Clock.now

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let send fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Read newline-terminated replies from [fds] until [expected] have arrived,
   every connection closed, or [deadline] passed; [on_line c line t] gets
   each reply with its connection index and arrival time. *)
let receive fds ~expected ~deadline on_line =
  let bufs = Array.map (fun _ -> Buffer.create 65536) fds in
  let open_ = Array.map (fun _ -> true) fds in
  let chunk = Bytes.create 65536 in
  let got = ref 0 in
  let split c t =
    let s = Buffer.contents bufs.(c) in
    let rec go start =
      match String.index_from_opt s start '\n' with
      | Some i ->
        incr got;
        on_line c (String.sub s start (i - start)) t;
        go (i + 1)
      | None ->
        Buffer.clear bufs.(c);
        Buffer.add_substring bufs.(c) s start (String.length s - start)
    in
    go 0
  in
  let waiting () = List.filter (fun c -> open_.(c)) (List.init (Array.length fds) Fun.id) in
  while !got < expected && now () < deadline && waiting () <> [] do
    let live = waiting () in
    let ready, _, _ =
      try Unix.select (List.map (fun c -> fds.(c)) live) [] [] (Float.min 0.5 (deadline -. now ()))
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun c ->
        if List.mem fds.(c) ready then
          match Unix.read fds.(c) chunk 0 (Bytes.length chunk) with
          | 0 -> open_.(c) <- false
          | n ->
            Buffer.add_subbytes bufs.(c) chunk 0 n;
            split c (now ())
          | exception Unix.Unix_error _ -> open_.(c) <- false)
      live
  done

type phase = {
  due : float array;  (** per request, absolute *)
  sent : float array;  (** per request; [nan] if the send failed *)
  replies : (float * string) list;  (** arrival time, raw line *)
  wall_s : float;  (** first due time to last reply *)
}

(* [bodies.(i)] is sent on connection [i mod |fds|] at [t0 + i/rps]. *)
let open_loop fds ~rps ~drain_s bodies =
  let n = Array.length bodies in
  let t0 = now () +. 0.01 in
  let due = Array.init n (fun i -> t0 +. (float_of_int i /. rps)) in
  let sent = Array.make n Float.nan in
  let sender () =
    Array.iteri
      (fun i body ->
        let dt = due.(i) -. now () in
        if dt > 0.0 then Unix.sleepf dt;
        sent.(i) <- now ();
        try send fds.(i mod Array.length fds) body
        with Unix.Unix_error _ -> sent.(i) <- Float.nan)
      bodies
  in
  let th = Thread.create sender () in
  let replies = ref [] in
  let last = ref t0 in
  receive fds ~expected:n ~deadline:(due.(n - 1) +. drain_s) (fun _ line t ->
      last := t;
      replies := (t, line) :: !replies);
  Thread.join th;
  { due; sent; replies = !replies; wall_s = !last -. t0 }

(* Closed loop: each connection keeps one request in flight and sends the
   next body as soon as its reply arrives. *)
let closed_loop fds ~deadline_s bodies =
  let n = Array.length bodies in
  let t0 = now () in
  let sent = Array.make n Float.nan in
  let next = ref 0 in
  let start c =
    if !next < n then begin
      let i = !next in
      incr next;
      sent.(i) <- now ();
      try send fds.(c) bodies.(i) with Unix.Unix_error _ -> sent.(i) <- Float.nan
    end
  in
  Array.iteri (fun c _ -> start c) fds;
  let replies = ref [] in
  let last = ref t0 in
  receive fds ~expected:n ~deadline:(t0 +. deadline_s) (fun c line t ->
      last := t;
      replies := (t, line) :: !replies;
      start c);
  { due = Array.copy sent; sent; replies = !replies; wall_s = !last -. t0 }
