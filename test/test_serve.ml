(* The persistent request-serving layer (infs_serve):
   - a malformed request line is answered with a structured error and the
     connection survives,
   - admission control sheds beyond the queue bound with [overloaded],
   - per-request deadlines answer [timeout] via the pool machinery,
   - graceful drain answers every admitted request (cancelled = 0) and
     the final stats reconcile with the responses the client saw,
   - a qcheck property: engine reports served over the socket are
     byte-identical to direct in-process runs of the same specs,
   - replaying a served session's JSONL trace rebuilds its live metrics
     registry, minus the series that have no event. *)

let sock_counter = ref 0

let sock_path tag =
  incr sock_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "infs-test-%d-%d-%s.sock" (Unix.getpid ()) !sock_counter tag)

(* start a server, run [f], always drain; returns f's result, the final
   stats and the server's metrics registry (valid after the drain) *)
let with_server ?(jobs = 2) ?(queue_depth = 64) ?default_timeout_s ?(trace = Trace.null) ~tag
    ~handler f =
  let path = sock_path tag in
  let cfg =
    { (Serve.default_config ~socket_path:path) with queue_depth; default_timeout_s; trace }
  in
  match Serve.start cfg (Serve.local ~jobs handler) with
  | Error e -> Alcotest.fail e
  | Ok t ->
    let final = ref (Serve.stats t) in
    let r =
      Fun.protect
        ~finally:(fun () ->
          Serve.request_stop t;
          final := Serve.wait t;
          try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
        (fun () -> f t path)
    in
    (r, !final, Serve.metrics t)

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

(* ---- protocol ---- *)

let test_malformed_line_keeps_connection () =
  let handler j = Ok j in
  let (), st, m =
    with_server ~tag:"malformed" ~handler (fun _t path ->
        let fd, ic, oc = connect path in
        send oc "this is { not json";
        let r0 = response (input_line ic) in
        Alcotest.(check string) "malformed answered with error" "error"
          (status r0);
        (match Option.bind (Json.member "error" r0) Json.to_str with
        | Some e ->
          Alcotest.(check bool) "error names the parse failure" true
            (String.length e >= 11 && String.sub e 0 11 = "parse error")
        | None -> Alcotest.fail "error response without error field");
        Alcotest.(check bool) "id echoes the line sequence" true
          (Json.member "id" r0 = Some (Json.Num 0.0));
        (* the connection survives: the next request is served normally *)
        send oc {|{"id": 7, "x": 1}|};
        let r1 = response (input_line ic) in
        Alcotest.(check string) "valid request after malformed is ok" "ok"
          (status r1);
        Alcotest.(check bool) "id of a valid request is echoed" true
          (Json.member "id" r1 = Some (Json.Num 7.0));
        Unix.close fd)
  in
  Alcotest.(check int) "one bad request counted" 1 st.Serve.bad;
  Alcotest.(check int) "one admitted" 1 st.Serve.admitted;
  Alcotest.(check int) "nothing cancelled" 0 st.Serve.cancelled;
  Alcotest.(check (float 0.0)) "metrics mirror the stats record" 1.0
    (Metrics.value m "serve.bad_requests")

let test_shed_beyond_bound () =
  let release = Atomic.make false in
  let handler j =
    while not (Atomic.get release) do
      Unix.sleepf 0.001
    done;
    Ok j
  in
  let (), st, m =
    with_server ~tag:"shed" ~jobs:1 ~queue_depth:1 ~handler (fun t path ->
        let fd, ic, oc = connect path in
        (* first request occupies the whole queue; the rest must shed *)
        for i = 0 to 3 do
          send oc (Printf.sprintf {|{"id": %d}|} i)
        done;
        (* only release the worker once the server has admission-checked
           all four lines — releasing earlier lets the queue drain and a
           late-read request get admitted instead of shed *)
        while (Serve.stats t).Serve.received < 4 do
          Unix.sleepf 0.001
        done;
        Atomic.set release true;
        let statuses = List.init 4 (fun _ -> status (response (input_line ic))) in
        Alcotest.(check (list string))
          "first admitted, rest shed with structured overloaded"
          [ "ok"; "overloaded"; "overloaded"; "overloaded" ]
          statuses;
        Unix.close fd)
  in
  Alcotest.(check int) "stats: 1 admitted" 1 st.Serve.admitted;
  Alcotest.(check int) "stats: 3 shed" 3 st.Serve.shed;
  Alcotest.(check int) "stats: 4 received" 4 st.Serve.received;
  Alcotest.(check (float 0.0)) "metrics: serve.shed agrees" 3.0
    (Metrics.value m "serve.shed");
  Alcotest.(check (float 0.0)) "metrics: queue depth gauge drained to 0" 0.0
    (Metrics.value m "serve.queue_depth")

let test_deadline_answers_timeout () =
  let handler _ =
    Unix.sleepf 5.0;
    Ok Json.Null
  in
  let (), st, _ =
    with_server ~tag:"deadline" ~jobs:1 ~handler (fun _t path ->
        let fd, ic, oc = connect path in
        let t0 = Unix.gettimeofday () in
        send oc {|{"id": 0, "timeout_s": 0.05}|};
        let r = response (input_line ic) in
        Alcotest.(check string) "deadline exceeded answers timeout" "timeout"
          (status r);
        Alcotest.(check bool) "answered at the deadline, not at completion"
          true
          (Unix.gettimeofday () -. t0 < 2.0);
        (* an invalid deadline is a bad request, not a crash *)
        send oc {|{"id": 1, "timeout_s": -3}|};
        Alcotest.(check string) "invalid timeout_s is a structured error"
          "error"
          (status (response (input_line ic)));
        Unix.close fd)
  in
  Alcotest.(check int) "stats: 1 deadline exceeded" 1 st.Serve.deadline_exceeded;
  Alcotest.(check int) "stats: 1 bad request" 1 st.Serve.bad

let test_drain_answers_admitted () =
  (* requests in flight when the stop arrives are still answered *)
  let handler j =
    Unix.sleepf 0.1;
    Ok j
  in
  let sent = 6 in
  let responses, st, m =
    with_server ~tag:"drain" ~jobs:2 ~queue_depth:16 ~handler (fun _t path ->
        let fd, ic, oc = connect path in
        for i = 0 to sent - 1 do
          send oc (Printf.sprintf {|{"id": %d}|} i)
        done;
        (* reading all responses before returning means the drain begins
           with zero in flight only after every answer is flushed *)
        let rs = List.init sent (fun _ -> response (input_line ic)) in
        Unix.close fd;
        rs)
  in
  List.iteri
    (fun i r ->
      Alcotest.(check string)
        (Printf.sprintf "request %d answered ok" i)
        "ok" (status r))
    responses;
  Alcotest.(check int) "every admitted request answered" st.Serve.admitted
    (Serve.answered st);
  Alcotest.(check int) "graceful drain cancels nothing" 0 st.Serve.cancelled;
  (* the metrics registry reconciles exactly with the stats record *)
  Alcotest.(check (float 0.0)) "metrics: serve.ok agrees"
    (float_of_int st.Serve.ok)
    (Metrics.value m "serve.ok");
  Alcotest.(check (float 0.0)) "metrics: serve.admitted agrees"
    (float_of_int st.Serve.admitted)
    (Metrics.value m "serve.admitted")

(* ---- byte-identity: served reports = direct runs ---- *)

let test_workloads = [ "vec_add"; "array_sum"; "attention" ]
let test_paradigms = [ "base"; "near-l3"; "inf-s" ]
let engine_handler = Infs_workloads.Spec.handler `Test ~faults:Fault.none

let spec_line id (wi, pi) =
  Printf.sprintf {|{"id": %d, "workload": %S, "paradigm": %S}|} id
    (List.nth test_workloads (wi mod List.length test_workloads))
    (List.nth test_paradigms (pi mod List.length test_paradigms))

let prop_served_equals_direct =
  QCheck.Test.make ~count:8 ~name:"serve: reports byte-identical to direct runs"
    QCheck.(list_of_size Gen.(1 -- 10) (pair small_nat small_nat))
    (fun picks ->
      QCheck.assume (picks <> []);
      let reports, st, _ =
        with_server ~tag:"prop" ~jobs:4 ~handler:engine_handler (fun _t path ->
            (* spread the requests over up to 3 concurrent connections;
               responses arrive in request order per connection *)
            let nconn = min 3 (List.length picks) in
            let conns = Array.init nconn (fun _ -> connect path) in
            let per_conn = Array.make nconn [] in
            List.iteri
              (fun i pick ->
                let c = i mod nconn in
                let _, _, oc = conns.(c) in
                send oc (spec_line i pick);
                per_conn.(c) <- i :: per_conn.(c))
              picks;
            let got = Array.make (List.length picks) Json.Null in
            Array.iteri
              (fun c (fd, ic, _) ->
                List.iter
                  (fun i -> got.(i) <- response (input_line ic))
                  (List.rev per_conn.(c));
                Unix.close fd)
              conns;
            got)
      in
      if st.Serve.cancelled > 0 then
        QCheck.Test.fail_report "drain cancelled admitted requests";
      List.iteri
        (fun i pick ->
          let direct =
            match
              engine_handler
                (Result.get_ok (Json.parse (spec_line i pick)))
            with
            | Ok payload -> Json.to_string payload
            | Error e -> QCheck.Test.fail_reportf "direct run failed: %s" e
          in
          let served = reports.(i) in
          (match Option.bind (Json.member "id" served) Json.to_num with
          | Some id when int_of_float id = i -> ()
          | _ -> QCheck.Test.fail_reportf "response %d carries the wrong id" i);
          if status served <> "ok" then
            QCheck.Test.fail_reportf "request %d not ok: %s" i
              (Json.to_string served);
          match Json.member "report" served with
          | None -> QCheck.Test.fail_reportf "response %d without report" i
          | Some r ->
            if Json.to_string r <> direct then
              QCheck.Test.fail_reportf
                "request %d: served report differs from direct run" i)
        picks;
      true)

(* ---- request lines: ids and bounds (also run through the front) ---- *)

let echo j = Ok j

let id_num j =
  match Option.bind (Json.member "id" j) Json.to_num with
  | Some n -> int_of_float n
  | None -> Alcotest.fail "response without numeric id"

(* an id-less request is answered with its connection's line sequence *)
let check_id_rule path =
  let conns = List.init 2 (fun _ -> connect path) in
  List.iter (fun (_, _, oc) -> for i = 0 to 2 do send oc (Printf.sprintf {|{"x": %d}|} i) done) conns;
  List.iteri
    (fun c (fd, ic, _) ->
      let ids = List.init 3 (fun _ -> id_num (response (input_line ic))) in
      Alcotest.(check (list int)) (Printf.sprintf "connection %d ids" c) [ 0; 1; 2 ] ids;
      Unix.close fd)
    conns

let error_of j =
  match Option.bind (Json.member "error" j) Json.to_str with
  | Some e -> e
  | None -> Alcotest.fail "error response without error field"

let starts_with prefix s = String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* a line over 1 MiB is refused without being buffered; one at the cap
   is served; the connection survives both *)
let check_line_cap path =
  let fd, ic, oc = connect path in
  send oc (String.make ((1 lsl 20) + 1) 'x');
  let r = response (input_line ic) in
  Alcotest.(check string) "over-long line is an error" "error" (status r);
  Alcotest.(check string) "error names the cap" "request line exceeds 1048576 bytes" (error_of r);
  Alcotest.(check int) "id is the line sequence" 0 (id_num r);
  let head = {|{"id": 1, "pad": "|} in
  send oc (head ^ String.make ((1 lsl 20) - String.length head - 2) 'y' ^ {|"}|});
  let r = response (input_line ic) in
  Alcotest.(check string) "a line at the cap is served" "ok" (status r);
  Alcotest.(check int) "its id is echoed" 1 (id_num r);
  send oc {|{"id": 7, "x": 1}|};
  Alcotest.(check string) "connection survives" "ok" (status (response (input_line ic)));
  Unix.close fd

let check_deep_line path =
  let fd, ic, oc = connect path in
  send oc (String.make 600 '[' ^ String.make 600 ']');
  let r = response (input_line ic) in
  Alcotest.(check string) "deep nesting is an error" "error" (status r);
  Alcotest.(check bool) "error names the depth cap" true
    (starts_with "parse error: json: nesting deeper than 512 at offset" (error_of r));
  send oc {|{"id": 7, "x": 1}|};
  Alcotest.(check string) "connection survives" "ok" (status (response (input_line ic)));
  Unix.close fd

let test_id_rule () =
  let (), st, _ = with_server ~tag:"ids" ~handler:echo (fun _t path -> check_id_rule path) in
  Alcotest.(check int) "all six served" 6 st.Serve.ok

let test_line_cap () =
  let (), st, _ = with_server ~tag:"cap" ~handler:echo (fun _t path -> check_line_cap path) in
  Alcotest.(check int) "the over-long line is one bad request" 1 st.Serve.bad

let test_deep_line () =
  let (), st, _ = with_server ~tag:"deep" ~handler:echo (fun _t path -> check_deep_line path) in
  Alcotest.(check int) "the deep line is one bad request" 1 st.Serve.bad

(* ---- live = replay (also run through the front) ---- *)

(* mixed traffic: requests, a repeat, a probe, a malformed line *)
let mixed_traffic path =
  let fd, ic, oc = connect path in
  for i = 0 to 3 do
    send oc (Printf.sprintf {|{"id": %d, "w": "r%d"}|} i (i mod 2))
  done;
  send oc {|{"ping": 1, "id": 99}|};
  send oc "this is { not json";
  for _ = 0 to 5 do
    ignore (response (input_line ic))
  done;
  Unix.close fd

(* Series with no event: the loop's queue-depth gauge and latency
   histogram, and the local handler's pool utilization. *)
let live_only prefix (s : Metrics.series) =
  s.Metrics.name = prefix ^ ".queue_depth"
  || s.Metrics.name = prefix ^ ".latency_us"
  || String.starts_with ~prefix:"pool." s.Metrics.name

(* [run trace] serves with [trace] on a JSONL file and returns the live
   registry after the drain; replaying the file must rebuild it exactly,
   minus the live-only series *)
let check_live_replay ~prefix run =
  let tmp = Filename.temp_file "infs-live-replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out tmp in
      let trace = Trace.to_channel Trace.Jsonl oc in
      let live = run trace in
      Trace.close trace;
      close_out oc;
      let rp = Trace_replay.create () in
      let ic = open_in tmp in
      let fed = Trace_replay.feed_channel rp ic in
      close_in ic;
      (match fed with
      | Ok n -> Alcotest.(check bool) "trace carries events" true (n > 0)
      | Error e -> Alcotest.failf "replay failed: %s" e);
      let sigs snap = List.map (fun s -> Json.to_string (Metrics.to_json [ s ])) snap in
      Alcotest.(check (list string))
        "replayed snapshot = live snapshot minus live-only series"
        (sigs (List.filter (fun s -> not (live_only prefix s)) (Metrics.snapshot live)))
        (sigs (Metrics.snapshot (Trace_replay.metrics rp))))

let test_live_replay () =
  check_live_replay ~prefix:"serve" (fun trace ->
      let (), _, m = with_server ~trace ~tag:"replay" ~handler:echo (fun _t path -> mixed_traffic path) in
      m)

(* ---- load generator: latency from the due time ---- *)

let test_client_counts_sender_lateness () =
  let r, _, _ =
    with_server ~tag:"co" ~handler:echo (fun _t path ->
        (* request 0 stalls the sender 200 ms; the 20 ms-spaced requests
           that fell due meanwhile must carry that lateness *)
        let body i =
          if i = 0 then Unix.sleepf 0.2;
          Printf.sprintf {|{"x": %d}|} i
        in
        match Serve_client.run ~socket:path ~rps:50.0 ~duration_s:0.4 ~body () with
        | Error e -> Alcotest.fail e
        | Ok r -> r)
  in
  Alcotest.(check int) "everything answered" r.Serve_client.sent r.Serve_client.ok;
  let late = List.length (List.filter (fun us -> us >= 100_000.0) r.Serve_client.all_latency_us) in
  Alcotest.(check bool) (Printf.sprintf "%d latencies >= 100 ms (want >= 4)" late) true (late >= 4)

let suite =
  [
    Alcotest.test_case "malformed line: error + connection survives" `Quick
      test_malformed_line_keeps_connection;
    Alcotest.test_case "admission: shed beyond queue depth" `Quick
      test_shed_beyond_bound;
    Alcotest.test_case "deadline: structured timeout" `Quick
      test_deadline_answers_timeout;
    Alcotest.test_case "drain answers every admitted request" `Quick
      test_drain_answers_admitted;
    QCheck_alcotest.to_alcotest ~rand:(Qcheck_seed.rand ())
      prop_served_equals_direct;
    Alcotest.test_case "id-less requests echo the line sequence" `Quick test_id_rule;
    Alcotest.test_case "bounded decoding: over-long line" `Quick test_line_cap;
    Alcotest.test_case "bounded decoding: deep nesting" `Quick test_deep_line;
    Alcotest.test_case "client latency counts sender lateness" `Quick
      test_client_counts_sender_lateness;
    Alcotest.test_case "live = replay" `Quick test_live_replay;
  ]
