(* The sharded serving front tier (Shard, over the Inproc backend):
   - basic fan-out over two shards answers everything, ids preserved,
   - repeat keys land on the same shard (route_hot / route_cold prove
     the cache-affine consistent-hash routing),
   - the front answers probe pings itself; in-band shard heartbeats flow
     without perturbing the FIFO response matching,
   - per-tenant quotas and the low-priority watermark shed on top of the
     queue-depth bound, each with its own counter,
   - a hard shard kill mid-flight re-dispatches every parked request to
     a healthy sibling (bounded), the backend respawns, and zero
     admitted requests are lost,
   - a graceful drain answers everything already admitted,
   - replaying the front's JSONL trace reproduces its shard.* counters
     exactly (live = replay reconciliation),
   - engine reports served through the front (pacing client, UDS and
     TCP targets) are byte-identical to direct in-process runs. *)

let sock_counter = ref 0

let sock_path tag =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "infs-shard-%d-%d-%s.sock" (Unix.getpid ()) !sock_counter
       tag)

(* start a 2-shard (by default) front over an in-process backend, run
   [f], always drain; returns f's result, the final stats and the
   front's metrics registry (valid after the drain) *)
let with_front ?(shards = 2) ?tcp_port ?(queue_depth = 64) ?tenant_quota
    ?heartbeat_s ?(redispatch_max = 2) ?trace ~tag ~handler f =
  let path = sock_path tag in
  let cfg =
    { (Serve.default_config ~socket_path:path) with tcp_port; queue_depth; tenant_quota }
  in
  let cfg = match trace with None -> cfg | Some tr -> { cfg with trace = tr } in
  match Shard.start cfg ~shards ~redispatch_max ?heartbeat_s (Shard.Inproc handler) with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let final = ref (Shard.stats t) in
    let r =
      Fun.protect
        ~finally:(fun () ->
          Shard.request_stop t;
          final := Shard.wait t;
          try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
        (fun () -> f t path)
    in
    (r, !final, Shard.metrics t)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let response line =
  match Json.parse line with
  | Error e -> Alcotest.fail ("unparseable response line: " ^ e)
  | Ok j -> j

let status j =
  match Option.bind (Json.member "status" j) Json.to_str with
  | Some s -> s
  | None -> Alcotest.fail "response without status field"

let id_num j =
  match Option.bind (Json.member "id" j) Json.to_num with
  | Some n -> int_of_float n
  | None -> Alcotest.fail "response without numeric id"

(* poll until [pred] holds; fail the test on timeout *)
let eventually ?(timeout_s = 5.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()

let echo j = Ok j

(* ---- basic fan-out ---- *)

let test_two_shards_basic () =
  let n = 6 in
  let rs, st, m =
    with_front ~tag:"basic" ~handler:echo (fun _t path ->
        let fd, ic, oc = connect path in
        for i = 0 to n - 1 do
          send oc (Printf.sprintf {|{"id": %d, "x": %d}|} i i)
        done;
        let rs = List.init n (fun _ -> response (input_line ic)) in
        Unix.close fd;
        rs)
  in
  List.iteri
    (fun i r ->
      Alcotest.(check string) (Printf.sprintf "request %d ok" i) "ok" (status r);
      Alcotest.(check int)
        (Printf.sprintf "request %d id preserved" i)
        i (id_num r))
    rs;
  Alcotest.(check int) "one client connection" 1 st.Shard.connections;
  Alcotest.(check int) "all received" n st.Shard.received;
  Alcotest.(check int) "all admitted" n st.Shard.admitted;
  Alcotest.(check int) "all answered" n st.Shard.answered;
  Alcotest.(check int) "nothing lost" 0 st.Shard.lost;
  Alcotest.(check int) "no crashes" 0 st.Shard.crashes;
  Alcotest.(check int) "nothing shed" 0 (Shard.shed_total st);
  Alcotest.(check (float 0.0)) "metrics mirror the stats record"
    (float_of_int st.Shard.answered)
    (Metrics.value m "shard.answered")

(* ---- cache-affine routing ---- *)

let test_repeat_key_routing () =
  (* 3 distinct specs, 4 submissions each: the id varies (it is an
     envelope field, excluded from the route key), the spec does not *)
  let distinct = 3 and repeats = 4 in
  let (), st, _ =
    with_front ~tag:"routing" ~handler:echo (fun _t path ->
        let fd, ic, oc = connect path in
        for i = 0 to (distinct * repeats) - 1 do
          send oc (Printf.sprintf {|{"id": %d, "w": "spec-%d"}|} i (i mod distinct))
        done;
        for i = 0 to (distinct * repeats) - 1 do
          Alcotest.(check string)
            (Printf.sprintf "request %d ok" i)
            "ok"
            (status (response (input_line ic)))
        done;
        Unix.close fd)
  in
  Alcotest.(check int) "each distinct key routed cold once" distinct
    st.Shard.route_cold;
  Alcotest.(check int) "every repeat lands on the warm shard"
    (distinct * (repeats - 1))
    st.Shard.route_hot;
  Alcotest.(check int) "no key moved (no crash)" 0 st.Shard.route_moved

(* ---- probes and heartbeats ---- *)

let test_front_ping () =
  let (), st, _ =
    with_front ~tag:"ping" ~handler:echo (fun _t path ->
        let fd, ic, oc = connect path in
        send oc {|{"ping": 1, "id": 42}|};
        let r = response (input_line ic) in
        Alcotest.(check string) "probe answered with pong" "pong" (status r);
        Alcotest.(check int) "probe id echoed" 42 (id_num r);
        send oc {|{"id": 7, "x": 1}|};
        Alcotest.(check string) "normal request after probe is ok" "ok"
          (status (response (input_line ic)));
        Unix.close fd)
  in
  Alcotest.(check int) "one ping counted" 1 st.Shard.pings;
  Alcotest.(check int) "probe not admitted" 1 st.Shard.admitted

let test_heartbeat_liveness () =
  let (), st, _ =
    with_front ~tag:"hb" ~heartbeat_s:0.05 ~handler:echo (fun t path ->
        let fd, ic, oc = connect path in
        send oc {|{"id": 0, "x": 0}|};
        Alcotest.(check string) "request before heartbeats ok" "ok"
          (status (response (input_line ic)));
        (* let several heartbeat periods elapse with the line idle *)
        eventually "heartbeat pongs" (fun () -> (Shard.stats t).Shard.hb_pong >= 2);
        (* in-band heartbeats must not perturb the FIFO matching *)
        send oc {|{"id": 1, "x": 1}|};
        let r = response (input_line ic) in
        Alcotest.(check string) "request after heartbeats ok" "ok" (status r);
        Alcotest.(check int) "response matched to the right request" 1 (id_num r);
        Unix.close fd)
  in
  Alcotest.(check bool) "heartbeats sent" true (st.Shard.hb_sent >= 2);
  Alcotest.(check bool) "pongs received" true (st.Shard.hb_pong >= 2);
  Alcotest.(check int) "healthy shards never declared dead" 0 st.Shard.crashes;
  Alcotest.(check int) "every admitted request answered" st.Shard.admitted
    st.Shard.answered

(* ---- admission: tenant quota and priority watermark ---- *)

let test_tenant_quota_shed () =
  let release = Atomic.make false in
  let handler j =
    while not (Atomic.get release) do
      Unix.sleepf 0.002
    done;
    Ok j
  in
  let (), st, _ =
    with_front ~tag:"quota" ~tenant_quota:1 ~handler (fun t path ->
        let fd1, ic1, oc1 = connect path in
        send oc1 {|{"id": 0, "tenant": "acme", "w": "a"}|};
        eventually "first acme request admitted" (fun () ->
            (Shard.stats t).Shard.admitted = 1);
        let fd2, ic2, oc2 = connect path in
        (* same tenant over quota: shed; another tenant: admitted *)
        send oc2 {|{"id": 1, "tenant": "acme", "w": "b"}|};
        let r1 = response (input_line ic2) in
        Alcotest.(check string) "over-quota tenant shed" "overloaded" (status r1);
        Alcotest.(check int) "shed response carries the request id" 1 (id_num r1);
        send oc2 {|{"id": 2, "tenant": "other", "w": "c"}|};
        eventually "other tenant admitted" (fun () ->
            (Shard.stats t).Shard.admitted = 2);
        Atomic.set release true;
        Alcotest.(check string) "held request completes" "ok"
          (status (response (input_line ic1)));
        Alcotest.(check string) "other tenant served" "ok"
          (status (response (input_line ic2)));
        Unix.close fd1;
        Unix.close fd2)
  in
  Alcotest.(check int) "one quota shed" 1 st.Shard.shed_quota;
  Alcotest.(check int) "no depth shed" 0 st.Shard.shed;
  Alcotest.(check int) "two admitted" 2 st.Shard.admitted;
  Alcotest.(check int) "both answered" 2 st.Shard.answered

let test_low_priority_watermark () =
  let release = Atomic.make false in
  let handler j =
    while not (Atomic.get release) do
      Unix.sleepf 0.002
    done;
    Ok j
  in
  (* queue_depth 4, watermark 0.5: low-priority sheds once 2 in flight *)
  let (), st, _ =
    with_front ~tag:"watermark" ~queue_depth:4 ~handler (fun t path ->
        let fd1, ic1, oc1 = connect path in
        send oc1 {|{"id": 0, "priority": "low", "w": "a"}|};
        eventually "low-priority under watermark admitted" (fun () ->
            (Shard.stats t).Shard.admitted = 1);
        send oc1 {|{"id": 1, "w": "b"}|};
        eventually "normal request admitted" (fun () ->
            (Shard.stats t).Shard.admitted = 2);
        let fd2, ic2, oc2 = connect path in
        send oc2 {|{"id": 2, "priority": "low", "w": "c"}|};
        let r = response (input_line ic2) in
        Alcotest.(check string) "low-priority above watermark shed" "overloaded"
          (status r);
        Atomic.set release true;
        Alcotest.(check string) "held low-priority request ok" "ok"
          (status (response (input_line ic1)));
        Alcotest.(check string) "held normal request ok" "ok"
          (status (response (input_line ic1)));
        Unix.close fd1;
        Unix.close fd2)
  in
  Alcotest.(check int) "one priority shed" 1 st.Shard.shed_priority;
  Alcotest.(check int) "no quota shed" 0 st.Shard.shed_quota;
  Alcotest.(check int) "two admitted" 2 st.Shard.admitted;
  Alcotest.(check int) "both answered" 2 st.Shard.answered

(* ---- crash resilience: hard kill mid-flight ---- *)

let test_kill_shard_redispatch () =
  let release = Atomic.make false in
  let handler j =
    while not (Atomic.get release) do
      Unix.sleepf 0.002
    done;
    Ok j
  in
  let n = 6 in
  let rs, st, _ =
    with_front ~tag:"kill" ~handler (fun t path ->
        let fd, ic, oc = connect path in
        for i = 0 to n - 1 do
          send oc (Printf.sprintf {|{"id": %d, "w": "k%d"}|} i i)
        done;
        eventually "all requests admitted" (fun () ->
            (Shard.stats t).Shard.admitted = n);
        (* kill the shard holding the most parked requests *)
        let victim =
          if Shard.shard_pending t 0 >= Shard.shard_pending t 1 then 0 else 1
        in
        Alcotest.(check bool) "victim has requests in flight" true
          (Shard.shard_pending t victim > 0);
        Shard.kill_shard t victim;
        eventually "crash detected" (fun () ->
            (Shard.stats t).Shard.crashes >= 1);
        eventually "victim respawned" (fun () -> Shard.shard_alive t victim);
        Atomic.set release true;
        let rs = List.init n (fun _ -> response (input_line ic)) in
        Unix.close fd;
        rs)
  in
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "request %d answered ok despite the kill" i)
        "ok" (status r);
      (* responses stay in per-connection request order across re-dispatch *)
      Alcotest.(check int) (Printf.sprintf "response %d in order" i) i (id_num r))
    rs;
  Alcotest.(check int) "zero admitted requests lost" 0 st.Shard.lost;
  Alcotest.(check int) "every admitted request answered" st.Shard.admitted
    st.Shard.answered;
  Alcotest.(check bool) "the kill was counted as a crash" true
    (st.Shard.crashes >= 1);
  Alcotest.(check bool) "parked requests re-dispatched" true
    (st.Shard.redispatched >= 1);
  Alcotest.(check bool) "re-dispatch stayed within budget" true
    (st.Shard.redispatched <= n * 2);
  Alcotest.(check bool) "the backend respawned" true (st.Shard.respawns >= 1);
  Alcotest.(check bool) "moved keys counted" true (st.Shard.route_moved >= 1)

(* ---- graceful drain ---- *)

let test_drain_answers_admitted () =
  let handler j =
    Unix.sleepf 0.05;
    Ok j
  in
  let n = 5 in
  let rs, st, _ =
    with_front ~tag:"drain" ~handler (fun t path ->
        let fd, ic, oc = connect path in
        for i = 0 to n - 1 do
          send oc (Printf.sprintf {|{"id": %d, "w": "d%d"}|} i i)
        done;
        eventually "all admitted" (fun () -> (Shard.stats t).Shard.admitted = n);
        (* the drain begins with every request still in flight *)
        Shard.request_stop t;
        let rs = List.init n (fun _ -> response (input_line ic)) in
        Unix.close fd;
        rs)
  in
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "request %d answered through the drain" i)
        "ok" (status r))
    rs;
  Alcotest.(check int) "every admitted request answered" st.Shard.admitted
    st.Shard.answered;
  Alcotest.(check int) "nothing lost" 0 st.Shard.lost

(* ---- live = replay reconciliation ---- *)

let counter_names =
  [
    "shard.connections";
    "shard.received";
    "shard.admitted";
    "shard.answered";
    "shard.pings";
    "shard.bad_requests";
    "shard.route_hot";
    "shard.route_cold";
    "shard.route_moved";
    "shard.redispatched";
    "shard.lost";
    "shard.crashes";
    "shard.respawns";
    "shard.shed";
    "shard.shed_quota";
    "shard.shed_priority";
    "shard.drained";
    "shard.hb_sent";
    "shard.hb_pong";
  ]

let test_live_replay_agreement () =
  let tmp = Filename.temp_file "infs-shard-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out tmp in
      let tr = Trace.to_channel Trace.Jsonl oc in
      let (), _, m =
        with_front ~tag:"replay" ~trace:tr ~handler:echo (fun _t path ->
            let fd, ic, sock_oc = connect path in
            (* mixed traffic: repeats, a probe, a malformed line *)
            for i = 0 to 5 do
              send sock_oc
                (Printf.sprintf {|{"id": %d, "w": "r%d"}|} i (i mod 3))
            done;
            send sock_oc {|{"ping": 1, "id": 99}|};
            send sock_oc "this is { not json";
            for _ = 0 to 7 do
              ignore (response (input_line ic))
            done;
            Unix.close fd)
      in
      Trace.close tr;
      close_out oc;
      let rp = Trace_replay.create () in
      let ic = open_in tmp in
      (match Trace_replay.feed_channel rp ic with
      | Ok applied ->
        close_in ic;
        Alcotest.(check bool) "trace carries events" true (applied > 0)
      | Error e ->
        close_in ic;
        Alcotest.failf "replay failed: %s" e);
      let rm = Trace_replay.metrics rp in
      Alcotest.(check (float 0.0)) "live counted the traffic" 6.0
        (Metrics.value m "shard.admitted");
      List.iter
        (fun name ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "replayed %s agrees with live" name)
            (Metrics.value m name) (Metrics.value rm name))
        counter_names)

(* ---- byte identity under the pacing client, UDS and TCP ---- *)

let test_workloads = [ "vec_add"; "array_sum" ]
let test_paradigms = [ "base"; "inf-s" ]
let engine_handler = Infs_workloads.Spec.handler `Test ~faults:Fault.none

let spec_bodies =
  List.concat_map
    (fun w ->
      List.map
        (fun p -> Printf.sprintf {|{"workload": %S, "paradigm": %S}|} w p)
        test_paradigms)
    test_workloads

let check_reports_byte_identical r =
  let distinct = List.length spec_bodies in
  Alcotest.(check bool) "client sent traffic" true (r.Serve_client.sent > 0);
  Alcotest.(check int) "no server errors" 0 r.Serve_client.error;
  Alcotest.(check int) "no unanswered requests" 0 r.Serve_client.unanswered;
  Alcotest.(check int) "every request served ok" r.Serve_client.sent
    r.Serve_client.ok;
  Alcotest.(check int) "one exemplar report per distinct spec" distinct
    (List.length r.Serve_client.ok_reports);
  List.iter
    (fun (body, served) ->
      let direct =
        match engine_handler (Result.get_ok (Json.parse body)) with
        | Ok payload -> Json.to_string payload
        | Error e -> Alcotest.failf "direct run failed: %s" e
      in
      Alcotest.(check string)
        (Printf.sprintf "report for %s byte-identical to a direct run" body)
        direct served)
    r.Serve_client.ok_reports

let run_client target =
  let bodies = Array.of_list spec_bodies in
  match
    Serve_client.run ~socket:target ~rps:50.0 ~duration_s:0.4 ~connections:2
      ~collect_reports:(Array.length bodies)
      ~body:(fun i -> bodies.(i mod Array.length bodies))
      ()
  with
  | Error e -> Alcotest.failf "client failed: %s" e
  | Ok r -> r

let test_client_uds_byte_identity () =
  let r, st, _ =
    with_front ~tag:"uds-client" ~handler:engine_handler (fun _t path ->
        run_client ("unix:" ^ path))
  in
  check_reports_byte_identical r;
  Alcotest.(check int) "every admitted request answered" st.Shard.admitted
    st.Shard.answered;
  (* repeat submissions of the same spec land on the warm shard *)
  Alcotest.(check bool) "repeat keys routed hot" true (st.Shard.route_hot > 0);
  Alcotest.(check bool) "at most one cold route per distinct spec" true
    (st.Shard.route_cold <= List.length spec_bodies)

let free_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close fd;
  port

let test_client_tcp_byte_identity () =
  let port = free_port () in
  let r, st, _ =
    with_front ~tag:"tcp-client" ~tcp_port:port ~handler:engine_handler
      (fun _t _path -> run_client (Printf.sprintf "tcp:127.0.0.1:%d" port))
  in
  check_reports_byte_identical r;
  Alcotest.(check int) "every admitted request answered" st.Shard.admitted
    st.Shard.answered;
  Alcotest.(check int) "both client connections accepted" 2
    st.Shard.connections

(* ---- request lines: the loop's id rule and bounds, through the front ---- *)

let test_id_rule () =
  let (), st, _ =
    with_front ~tag:"ids" ~handler:echo (fun _t path -> Test_serve.check_id_rule path)
  in
  Alcotest.(check int) "all six forwarded" 6 st.Shard.answered

let test_line_cap () =
  let (), st, _ =
    with_front ~tag:"cap" ~handler:echo (fun _t path -> Test_serve.check_line_cap path)
  in
  Alcotest.(check int) "the over-long line is one bad request" 1 st.Shard.bad

let test_deep_line () =
  let (), st, _ =
    with_front ~tag:"deep" ~handler:echo (fun _t path -> Test_serve.check_deep_line path)
  in
  Alcotest.(check int) "the deep line is one bad request" 1 st.Shard.bad

let suite =
  [
    Alcotest.test_case "two shards answer everything" `Quick
      test_two_shards_basic;
    Alcotest.test_case "routing: repeat keys land hot" `Quick
      test_repeat_key_routing;
    Alcotest.test_case "front answers probe pings" `Quick test_front_ping;
    Alcotest.test_case "heartbeats flow without perturbing FIFO" `Quick
      test_heartbeat_liveness;
    Alcotest.test_case "admission: tenant quota shed" `Quick
      test_tenant_quota_shed;
    Alcotest.test_case "admission: low-priority watermark shed" `Quick
      test_low_priority_watermark;
    Alcotest.test_case "kill mid-flight: re-dispatch, zero lost" `Quick
      test_kill_shard_redispatch;
    Alcotest.test_case "drain answers every admitted request" `Quick
      test_drain_answers_admitted;
    Alcotest.test_case "live = replay counter agreement" `Quick
      test_live_replay_agreement;
    Alcotest.test_case "pacing client over UDS: byte-identical reports" `Quick
      test_client_uds_byte_identity;
    Alcotest.test_case "pacing client over TCP: byte-identical reports" `Quick
      test_client_tcp_byte_identity;
    Alcotest.test_case "id-less requests echo the line sequence" `Quick test_id_rule;
    Alcotest.test_case "bounded decoding: over-long line" `Quick test_line_cap;
    Alcotest.test_case "bounded decoding: deep nesting" `Quick test_deep_line;
  ]
