(* serve-front: `infs_run serve --shards 2 --jobs 1 --tcp PORT` at paper
   scale, driven over loopback TCP by {!Loadgen}.

   The traffic mix is seeded and random, not round-robin: 75% of requests
   are eight hot specs (cache-affine routing keeps each on its warm
   shard), 25% are distinct cold-key specs drawn from the same workloads
   x paradigm x Eq. 2 override x optimize/warm/pre_transposed/charge_jit,
   which miss the routing table and the long-lived caches. Every phase has
   exactly that composition; the seed only decides order and which cold
   keys appear. *)

module E = Infinity_stream.Engine
module R = Infinity_stream.Report

let now = Clock.now
let scratch = ".bench_host"

type spec = {
  workload : string;
  paradigm : string;
  flags : (string * Json.t) list;  (** [] = the server's defaults *)
}

let workloads =
  [ "mm/out"; "stencil2d"; "kmeans/out"; "conv3d"; "attention"; "layernorm"; "gather_mlp/out"; "dwt2d" ]

let paradigm_names = [ "base"; "near-l3"; "in-l3"; "inf-s" ]

let hot =
  Array.of_list
    (List.map
       (fun (workload, paradigm) -> { workload; paradigm; flags = [] })
       [
         ("dwt2d", "inf-s");
         ("mm/out", "inf-s");
         ("stencil2d", "inf-s");
         ("kmeans/out", "in-l3");
         ("conv3d", "near-l3");
         ("attention", "inf-s");
         ("layernorm", "base");
         ("gather_mlp/out", "inf-s");
       ])

let fields s = ("workload", Json.Str s.workload) :: ("paradigm", Json.Str s.paradigm) :: s.flags
let key s = Json.to_string (Json.Obj (fields s))
let body id s = Json.to_string (Json.Obj (("id", Json.Num (float_of_int id)) :: fields s))

(* Distinct cold specs; each run of 32 visits every workload x paradigm
   pair once (in seeded order), so the cost mix varies little with the
   seed. *)
let cold_stream rng =
  let pairs =
    Array.of_list (List.concat_map (fun w -> List.map (fun p -> (w, p)) paradigm_names) workloads)
  in
  let seen = Hashtbl.create 512 and j = ref 0 in
  let rec next () =
    if !j mod Array.length pairs = 0 then Rng.shuffle rng pairs;
    let workload, paradigm = pairs.(!j mod Array.length pairs) in
    incr j;
    let b () = Json.Bool (Rng.bool rng) in
    let flags =
      [
        ("eq2", Json.Str (List.nth [ "auto"; "imc"; "core" ] (Rng.int rng 3)));
        ("optimize", b ());
        ("warm", b ());
        ("pre_transposed", b ());
        ("charge_jit", b ());
      ]
    in
    let s = { workload; paradigm; flags } in
    if Hashtbl.mem seen (key s) then next ()
    else begin
      Hashtbl.add seen (key s) ();
      s
    end
  in
  next

(* [n] requests: a quarter cold, the rest the hot specs in equal shares,
   shuffled together *)
let phase_specs rng cold n =
  let n_cold = n / 4 in
  let a = Array.init n (fun i -> if i < n_cold then cold () else hot.(i mod Array.length hot)) in
  Rng.shuffle rng a;
  a

(* Every workload x optimize flag on several keys, so both shards have
   compiled every program before timing starts ("heuristic" is Eq. 2's
   default under another name, keeping these keys out of the cold set);
   then the hot specs once each. *)
let prewarm_specs =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun opt ->
          List.map
            (fun paradigm ->
              {
                workload;
                paradigm;
                flags = [ ("eq2", Json.Str "heuristic"); ("optimize", Json.Bool opt) ];
              })
            paradigm_names)
        [ true; false ])
    workloads
  @ Array.to_list hot

(* ---- the server ---- *)

type server = {
  pid : int;
  port : int;
  tag : string;  (** scratch-file prefix *)
  shards : int list;
  fds : Unix.file_descr array;  (** the generator's two connections *)
  mutable next_id : int;
  specs : (int, spec) Hashtbl.t;  (** request id -> spec *)
  mutable sent : (int * float) list;  (** id, send time: every request *)
  mutable answers : (float * string) list;  (** arrival, raw reply: every reply *)
}

let live : server list ref = ref []

let infs_run () =
  let build = Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)) in
  Filename.concat build "bin/infs_run.exe"

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Some (Unix.WEXITED 0)

let gone pid = not (Sys.file_exists (Printf.sprintf "/proc/%d" pid))

let rec wait_until ~deadline f =
  match f () with
  | Some x -> Some x
  | None when now () > deadline -> None
  | None ->
    Unix.sleepf 0.02;
    wait_until ~deadline f

let shard_pids log =
  match Host.read_file log with
  | None -> []
  | Some s ->
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "serve: shard %d pid %d" (fun _ pid -> pid))
      (String.split_on_char '\n' s)

let count = ref 0

let start ~traced =
  if not (Sys.file_exists scratch) then Sys.mkdir scratch 0o755;
  incr count;
  let tag = Printf.sprintf "%s/%d-%d" scratch (Unix.getpid ()) !count in
  let port = Host.free_port () in
  let argv =
    Array.of_list
      ([ infs_run (); "serve"; "--socket"; tag ^ ".sock"; "--shards"; "2"; "--jobs"; "1" ]
      @ [ "--tcp"; string_of_int port; "--scale"; "paper" ]
      @ if traced then [ "--metrics"; tag ^ ".metrics.json"; "--prof"; tag ^ ".prof.json" ] else [])
  in
  let log = Unix.openfile (tag ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin log log in
  Unix.close log;
  let deadline = now () +. 60.0 in
  let connect () =
    match exited pid with
    | Some _ -> failwith ("serve-front: the server exited during start-up; see " ^ tag ^ ".log")
    | None -> ( try Some (Loadgen.connect port) with Unix.Unix_error _ -> None)
  in
  let fds =
    Array.init 2 (fun _ ->
        match wait_until ~deadline connect with
        | Some fd -> fd
        | None -> failwith "serve-front: the server never accepted a connection")
  in
  let shards =
    wait_until ~deadline (fun () ->
        match shard_pids (tag ^ ".log") with [ _; _ ] as l -> Some l | _ -> None)
    |> Option.value ~default:[]
  in
  let s =
    { pid; port; tag; shards; fds; next_id = 0; specs = Hashtbl.create 4096; sent = []; answers = [] }
  in
  live := s :: !live;
  s

(* SIGTERM drains the front, which stops its shards; returns whether it
   exited cleanly *)
let stop s =
  Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) s.fds;
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let st =
    match wait_until ~deadline:(now () +. 30.0) (fun () -> exited s.pid) with
    | Some st -> st
    | None ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      snd (Unix.waitpid [] s.pid)
  in
  List.iter
    (fun pid ->
      if wait_until ~deadline:(now () +. 10.0) (fun () -> if gone pid then Some () else None) = None
      then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    s.shards;
  live := List.filter (fun x -> x != s) !live;
  st = Unix.WEXITED 0

(* a cleanly stopped server's side files are read; drop them afterwards
   (a failed one's log stays for diagnosis) *)
let remove_files s =
  Array.iter
    (fun f ->
      let prefix = Filename.basename s.tag ^ "." in
      if String.length f > String.length prefix && String.sub f 0 (String.length prefix) = prefix then
        Sys.remove (Filename.concat scratch f))
    (Sys.readdir scratch)

let () =
  at_exit (fun () ->
      List.iter
        (fun s ->
          List.iter
            (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
            (s.pid :: s.shards);
          ignore (Unix.waitpid [] s.pid))
        !live)

let server_cpu s = List.fold_left (fun a pid -> a +. Host.cpu_of_pid pid) 0.0 (s.pid :: s.shards)

(* ---- phases ---- *)

let bodies s specs =
  Array.map
    (fun sp ->
      s.next_id <- s.next_id + 1;
      Hashtbl.replace s.specs s.next_id sp;
      (s.next_id, body s.next_id sp))
    specs

(* a reply, parsed after the phase *)
type answer = { ok : bool; recv : float; cycles : float; digest : Digest.t option }

let parse_reply (recv, line) =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
    match Option.bind (Json.member "id" j) Json.to_int with
    | None -> None
    | Some id ->
      let report = Json.member "report" j in
      let ok = Option.bind (Json.member "status" j) Json.to_str = Some "ok" && report <> None in
      Some
        ( id,
          {
            ok;
            recv;
            cycles =
              Option.bind report (Json.member "cycles")
              |> Fun.flip Option.bind Json.to_num
              |> Option.value ~default:0.0;
            digest = Option.map (fun r -> Digest.string (Json.to_string r)) report;
          } ))

type phase = {
  ids : int array;
  p : Loadgen.phase;
  answers : (int, answer) Hashtbl.t;
}

let record s ids (p : Loadgen.phase) =
  s.sent <- Array.to_list (Array.mapi (fun i id -> (id, p.sent.(i))) ids) @ s.sent;
  s.answers <- p.replies @ s.answers;
  let answers = Hashtbl.create (Array.length ids) in
  List.iter
    (fun r -> Option.iter (fun (id, a) -> Hashtbl.replace answers id a) (parse_reply r))
    p.replies;
  { ids; p; answers }

let open_phase s ~rps specs =
  let b = bodies s specs in
  record s (Array.map fst b) (Loadgen.open_loop s.fds ~rps ~drain_s:20.0 (Array.map snd b))

let closed_phase ?(conns = 2) s specs =
  let b = bodies s specs in
  record s (Array.map fst b)
    (Loadgen.closed_loop (Array.sub s.fds 0 conns) ~deadline_s:60.0 (Array.map snd b))

(* latency from due time, ok replies; and the failed count *)
let latencies ph =
  let lats = ref [] and failed = ref 0 in
  Array.iteri
    (fun i id ->
      match Hashtbl.find_opt ph.answers id with
      | Some a when a.ok -> lats := ((a.recv -. ph.p.due.(i)) *. 1e3) :: !lats
      | _ -> incr failed)
    ph.ids;
  (!lats, !failed)

let lag_ms ph =
  Array.to_list (Array.mapi (fun i t -> (t -. ph.p.Loadgen.due.(i)) *. 1e3) ph.p.Loadgen.sent)
  |> List.filter Float.is_finite

type burst = { wall : float; cpu : float; cycles : float; failed : int }

(* A burst is a closed-loop pass over the hot specs alone (eight of
   each, seeded order): the warm serving path's throughput, with a fixed
   amount of simulated work per pass. Cold keys load the open-loop
   phases. *)
let burst_size = 64

let burst ?conns s rng =
  let specs = Array.init burst_size (fun i -> hot.(i mod Array.length hot)) in
  Rng.shuffle rng specs;
  let c0 = server_cpu s in
  let ph = closed_phase ?conns s specs in
  let cpu = server_cpu s -. c0 in
  let _, failed = latencies ph in
  {
    wall = ph.p.wall_s;
    cpu;
    cycles = Hashtbl.fold (fun _ a acc -> if a.ok then acc +. a.cycles else acc) ph.answers 0.0;
    failed;
  }

(* ---- correctness: served reports against direct runs ---- *)

let direct sp =
  let flag k d = match List.assoc_opt k sp.flags with Some (Json.Bool b) -> b | _ -> d in
  let policy =
    match List.assoc_opt "eq2" sp.flags with
    | Some (Json.Str x) -> (
      match Decision.override_of_string x with
      | Ok Decision.Auto -> Decision.Heuristic
      | Ok ov -> Decision.Tuned { default = ov; per_kernel = [] }
      | Error e -> failwith e)
    | _ -> Decision.Heuristic
  in
  let options =
    {
      E.default_options with
      optimize = flag "optimize" true;
      warm_data = flag "warm" false;
      pre_transposed = flag "pre_transposed" false;
      charge_jit = flag "charge_jit" true;
      decision_policy = policy;
      share_compile = true;
    }
  in
  let p = List.assoc sp.paradigm Ledger.paradigms in
  E.run ~options p (Inproc.resolve `Paper sp.workload)
  |> Result.map (fun r -> Digest.string (Json.to_string (R.to_json r)))

(* Every hot reply, and 64 seeded cold keys, must be byte-identical to
   [Report.to_json] of a direct in-process run of the same spec. Returns
   the number of mismatching replies. *)
let check rng s =
  let by_key = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      match parse_reply r with
      | Some (id, { ok = true; digest = Some d; _ }) -> (
        match Hashtbl.find_opt s.specs id with
        | Some sp -> Hashtbl.replace by_key (key sp) ((sp, d) :: Option.value ~default:[] (Hashtbl.find_opt by_key (key sp)))
        | None -> ())
      | _ -> ())
    s.answers;
  let hot_keys = Array.to_list (Array.map key hot) in
  let cold = Hashtbl.fold (fun k v acc -> if List.mem k hot_keys then acc else (k, v) :: acc) by_key [] in
  let cold = Array.of_list (List.sort compare cold) in
  Rng.shuffle rng cold;
  let sample = Array.to_list (Array.sub cold 0 (min 64 (Array.length cold))) in
  let checked = List.filter_map (fun k -> Option.map (fun v -> (k, v)) (Hashtbl.find_opt by_key k)) hot_keys @ sample in
  List.fold_left
    (fun bad (_, replies) ->
      let sp = fst (List.hd replies) in
      match direct sp with
      | Error e ->
        prerr_endline ("host_bench: serve-front direct run failed for " ^ key sp ^ ": " ^ e);
        bad + List.length replies
      | Ok want ->
        let n = List.length (List.filter (fun (_, d) -> d <> want) replies) in
        if n > 0 then prerr_endline ("host_bench: serve-front report differs from a direct run: " ^ key sp);
        bad + n)
    0 checked

(* ---- runs ---- *)

(* Shares of the run length: the headline rate's open loop, each ladder
   step, and the bursts (whose count fixes from the nominal burst time on
   the 2-core reference host). *)
let headline_share = 0.55
let step_share = 1.0 /. 16.0
let burst_share = 0.2
let nominal_burst_s = 0.25
let bursts ~seconds = max 3 (Float.to_int (Float.round (burst_share *. seconds /. nominal_burst_s)))
let headline_rps = 40.0
let requests ~rps ~share ~seconds = max 8 (Float.to_int (rps *. share *. seconds))
let ladder = [ 80.0; 160.0; 320.0 ]
let slo_ms = 150.0

let setup ~traced =
  let t0 = now () in
  let s = start ~traced in
  ignore (closed_phase s (Array.of_list prewarm_specs));
  (s, now () -. t0)

let peak_mb s = List.fold_left (fun a pid -> a +. Host.peak_rss_mb ~pid ()) 0.0 (s.pid :: s.shards)

let tail_value lats =
  Results.
    {
      v = Some (Sample.tail lats);
      detail =
        [
          ("quantile", Json.Str (Sample.tail_label (List.length lats)));
          ("n", Json.Num (float_of_int (List.length lats)));
        ];
    }

let lag_values ph =
  let lag = Sample.tail (lag_ms ph) in
  ( Results.("gen.lag_tail_ms", num lag),
    if lag > 5.0 then [ Printf.sprintf "generator ran %.1f ms late at its tail (> 5 ms)" lag ] else [] )

let run ~seed ~seconds =
  let rng = Rng.create seed in
  let cold = cold_stream (Rng.split rng) in
  let mix n = phase_specs rng cold n in
  (* set up three times, each after a probe; the last server stays *)
  let setup_probes, setups =
    List.split (List.init 3 (fun _ -> Host.probed (fun () -> setup ~traced:false)))
  in
  List.iteri (fun i (s, _) -> if i < 2 && stop s then remove_files s) setups;
  let s = fst (List.nth setups 2) in
  let calib = ref [ Host.calib_ms () ] in
  let head = open_phase s ~rps:headline_rps (mix (requests ~rps:headline_rps ~share:headline_share ~seconds)) in
  let head_lats, head_failed = latencies head in
  (* SLO ladder: the highest rate whose tail stays under the limit with no
     failed or refused request, climbing from the headline rate and
     stopping at the first miss *)
  let meets (lats, failed) = failed = 0 && Sample.tail lats <= slo_ms in
  let slo = ref 0.0 and ladder_detail = ref [] in
  (try
     if not (meets (head_lats, head_failed)) then raise Exit;
     slo := headline_rps;
     List.iter
       (fun rps ->
         calib := Host.calib_ms () :: !calib;
         let lats, failed = latencies (open_phase s ~rps (mix (requests ~rps ~share:step_share ~seconds))) in
         ladder_detail :=
           ( Printf.sprintf "%g" rps,
             Json.Str (Printf.sprintf "%s %.1f ms, %d failed" (Sample.tail_label (List.length lats)) (Sample.tail lats) failed) )
           :: !ladder_detail;
         if meets (lats, failed) then slo := rps else raise Exit)
       ladder
   with Exit -> ());
  let nb = bursts ~seconds in
  let burst_probes, bursts =
    List.split (List.init nb (fun _ -> Host.probed (fun () -> burst s rng)))
  in
  let peak = peak_mb s in
  let clean = stop s in
  if clean then remove_files s;
  let bad = check rng s in
  let attempted = Array.length head.ids + (nb * burst_size) in
  let failed =
    head_failed + List.fold_left (fun a b -> a + b.failed) 0 bursts + bad + if clean then 0 else 1
  in
  let calib_v, calib_flags = Inproc.calib_values (!calib @ burst_probes) in
  let lag_v, lag_flags = lag_values head in
  let bs f = Results.of_sample (Sample.of_list (List.map f bursts)) in
  (* Open-loop latencies stay as measured: scaling them by the probe
     widened their run-to-run spread in four of four sets of ten runs for
     the median and three of four for the tail (the probe runs alone in
     this process while the server's three processes share both cores),
     where it narrowed the bursts' in three of four. *)
  ( Results.normalize ~calib:(Stats.median setup_probes) [ "setup_s" ]
      Results.[ ("setup_s", of_sample (Sample.of_list (List.map snd setups))) ]
    @ Results.normalize ~calib:(Stats.median burst_probes) [ "pass_s"; "cpu_s"; "sim_rate" ]
        [
          ("pass_s", bs (fun b -> b.wall));
          ("cpu_s", bs (fun b -> b.cpu));
          ("sim_rate", bs (fun b -> b.cycles /. b.wall));
        ]
    @ Results.
      [
        ("p50_ms", of_sample (Sample.of_list head_lats));
        ("tail_ms", tail_value head_lats);
        ("peak_rss_mb", num peak);
        ("slo_rps", { v = Some !slo; detail = List.rev !ladder_detail });
        ("fail_ratio", num (Stats.ratio (float_of_int failed) (float_of_int attempted)));
        calib_v;
        lag_v;
      ],
    attempted,
    failed,
    calib_flags @ lag_flags )

(* ---- the traced run ---- *)

let metrics_series path =
  match Option.map Json.parse (Host.read_file path) with
  | Some (Ok j) when Option.bind (Json.member "schema" j) Json.to_str = Some "infs-metrics-1" ->
    Option.bind (Json.member "series" j) Json.to_list |> Option.value ~default:[]
  | _ -> []

let field k j = Option.bind (Json.member k j) Json.to_num |> Option.value ~default:0.0

let sum_of series name f =
  List.fold_left
    (fun a j -> if Option.bind (Json.member "name" j) Json.to_str = Some name then a +. f j else a)
    0.0 series

(* a span's mean duration in ms from an infs-prof-1 JSON profile *)
let prof_mean_ms path span =
  match Option.map Json.parse (Host.read_file path) with
  | Some (Ok j) when Option.bind (Json.member "schema" j) Json.to_str = Some "infs-prof-1" ->
    Option.bind (Json.member "spans" j) Json.to_list
    |> Option.value ~default:[]
    |> List.find_opt (fun r -> Option.bind (Json.member "path" r) Json.to_str = Some span)
    |> Option.map (fun r -> field "total_ns" r /. 1e6 /. Float.max 1.0 (field "calls" r))
  | _ -> None

let run_layers ~seed ~seconds =
  let rng = Rng.create seed in
  let cold = cold_stream (Rng.split rng) in
  let mix n = phase_specs rng cold n in
  let k = bursts ~seconds / 2 in
  (* untraced server: bursts only, the base for the tracing overhead *)
  let s0, _ = setup ~traced:false in
  let plain = List.init k (fun _ -> burst s0 rng) in
  let clean0 = stop s0 in
  if clean0 then remove_files s0;
  let bad0 = check rng s0 in
  (* traced server: side files on, bursts at two and one connections
     alternating, then the headline rate *)
  let s, _ = setup ~traced:true in
  let calib = ref [] and two = ref [] and one = ref [] in
  for _ = 1 to k do
    calib := Host.calib_ms () :: !calib;
    two := burst s rng :: !two;
    one := burst ~conns:1 s rng :: !one
  done;
  let two = List.rev !two and one = List.rev !one in
  let shard_rss () = List.fold_left (fun a pid -> a +. Host.rss_mb ~pid ()) 0.0 s.shards in
  let rss0 = shard_rss () in
  let head = open_phase s ~rps:headline_rps (mix (requests ~rps:headline_rps ~share:headline_share ~seconds)) in
  let rss1 = shard_rss () in
  let _, head_failed = latencies head in
  let front_mb = Host.peak_rss_mb ~pid:s.pid () in
  let shard_mb = List.fold_left (fun a pid -> Float.max a (Host.peak_rss_mb ~pid ())) 0.0 s.shards in
  let clean = stop s in
  let bad = check rng s in
  (* the server side: front counters and shard pool/latency series *)
  let front = metrics_series (s.tag ^ ".metrics.json") in
  let shards = List.concat_map (fun i -> metrics_series (Printf.sprintf "%s.metrics.json.shard%d" s.tag i)) [ 0; 1 ] in
  let counter ss n = sum_of ss n (field "value") in
  let run_ms =
    1e3 *. counter shards "pool.worker.busy_s" /. Float.max 1.0 (counter shards "pool.worker.jobs")
  in
  let shard_lat_ms =
    sum_of shards "serve.latency_us" (field "sum") /. 1e3 /. Float.max 1.0 (sum_of shards "serve.latency_us" (field "count"))
  in
  let client_ms =
    let sent = Hashtbl.create 4096 in
    List.iter (fun (id, t) -> Hashtbl.replace sent id t) s.sent;
    List.filter_map
      (fun r ->
        Option.bind (parse_reply r) (fun (id, a) ->
            Option.map (fun t -> (a.recv -. t) *. 1e3) (Hashtbl.find_opt sent id)))
      s.answers
    |> Stats.mean
  in
  let routes = List.map (counter front) [ "shard.route_hot"; "shard.route_cold"; "shard.route_moved" ] in
  let prof stage =
    List.filter_map (fun i -> prof_mean_ms (Printf.sprintf "%s.prof.json.shard%d" s.tag i) ("serve;request;" ^ stage)) [ 0; 1 ]
    |> function [] -> Results.missing | l -> Results.num (Stats.mean l)
  in
  let write_back = prof "write_back" in
  if clean then remove_files s;
  let split pred =
    let lats = ref [] in
    Array.iteri
      (fun i id ->
        match (Hashtbl.find_opt head.answers id, Hashtbl.find_opt s.specs id) with
        | Some a, Some sp when a.ok && pred sp -> lats := ((a.recv -. head.p.due.(i)) *. 1e3) :: !lats
        | _ -> ())
      head.ids;
    tail_value !lats
  in
  let med f l = Stats.median (List.map f l) in
  let attempted = Array.length head.ids + (3 * k * burst_size) in
  let failed =
    head_failed + bad0 + bad
    + List.fold_left (fun a b -> a + b.failed) 0 (plain @ two @ one)
    + (if clean0 then 0 else 1)
    + if clean then 0 else 1
  in
  let programs = List.map (Inproc.resolve `Paper) workloads in
  let calib_v, calib_flags = Inproc.calib_values !calib in
  let lag_v, lag_flags = lag_values head in
  ( Ledger.compile_chain programs
    @ Results.
        [
          (* the shards' heaps are out of reach: their resident set's growth
             over the mixed open loop, per 64 requests, stands in *)
          ( "engine.live_mb_per_pass",
            num ((rss1 -. rss0) *. float_of_int burst_size /. float_of_int (Array.length head.ids)) );
        ]
    @ Ledger.paradigm_runs programs
    @ Ledger.jit_imc ()
    @ Results.
        [
          ("pool.cpu_util", num (med (fun b -> b.cpu /. b.wall) two));
          ("pool.speedup", num (med (fun b -> b.wall) one /. med (fun b -> b.wall) two));
          calib_v;
          ("trace.overhead_pct", num (100.0 *. ((med (fun b -> b.wall) two /. med (fun b -> b.wall) plain) -. 1.0)));
          ("serve.queue_wait_ms", num ((shard_lat_ms -. run_ms) |> Float.max 0.0));
          ("serve.run_ms", num run_ms);
          ("serve.write_back_ms", write_back);
          ("shard.route_hot_ratio", num (Stats.ratio (List.hd routes) (List.fold_left ( +. ) 0.0 routes)));
          ("shard.proxy_ms", num (client_ms -. shard_lat_ms));
          ("serve.hot_tail_ms", split (fun sp -> sp.flags = []));
          ("serve.cold_tail_ms", split (fun sp -> sp.flags <> []));
          ( "serve.shed",
            num
              (counter shards "serve.shed"
              +. List.fold_left ( +. ) 0.0
                   (List.map (counter front) [ "shard.shed"; "shard.shed_quota"; "shard.shed_priority" ])) );
          ("mem.front_rss_mb", num front_mb);
          ("mem.shard_rss_mb", num shard_mb);
          lag_v;
        ],
    attempted,
    failed,
    calib_flags @ lag_flags )
