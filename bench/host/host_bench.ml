(* host_bench: host-time and memory benchmark of the simulator stack.

     host_bench                              every workload, end to end
     host_bench --layers                     every workload, traced (per layer)
     host_bench --workload W --seed N --seconds S --trace 0|1
     host_bench --quick                      in-process workloads, one pass
     host_bench compare A.json B.json        paired parent/change verdicts

   One workload runs per process: without --workload the harness re-runs
   itself once per workload, so heap state and peak RSS belong to that
   workload alone. With --workload the last stdout line is a one-line
   JSON summary of the benchmark definition's metrics. *)

let workloads = [ "cold-run"; "warm-sim"; "tune-sweep"; "serve-front" ]

let run_one ?setups ~workload ~seed ~seconds ~layers () =
  let values, attempted, failed, flags =
    match workload with
    | "serve-front" ->
      if layers then Serve_front.run_layers ~seed ~seconds else Serve_front.run ~seed ~seconds
    | name -> (
      match Inproc.find name with
      | None ->
        prerr_endline
          ("host_bench: unknown workload " ^ name ^ "; one of " ^ String.concat ", " workloads);
        exit 2
      | Some w ->
        if layers then Inproc.run_layers w ~seed ~seconds else Inproc.run ?setups w ~seed ~seconds)
  in
  {
    Results.workload;
    seed;
    seconds = Float.to_int seconds;
    layers_run = layers;
    attempted;
    failed;
    flags;
    values;
  }

let usage () =
  prerr_endline
    "usage: host_bench [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --layers] [-o FILE]\n\
    \       host_bench --quick\n\
    \       host_bench compare A.json B.json";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable layers : bool;
  mutable out : string option;
  mutable quick : bool;
  mutable setup_only : bool;
}

let parse args =
  let o = { workload = None; seed = 1; seconds = 15.0; layers = false; out = None; quick = false; setup_only = false } in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o.workload <- Some w; go rest
    | "--seed" :: n :: rest -> o.seed <- int_of_string n; go rest
    | "--seconds" :: s :: rest -> o.seconds <- float_of_string s; go rest
    | "--trace" :: t :: rest -> o.layers <- t = "1"; go rest
    | "--layers" :: rest -> o.layers <- true; go rest
    | ("-o" | "--out") :: f :: rest -> o.out <- Some f; go rest
    | "--quick" :: rest -> o.quick <- true; go rest
    | "--setup-only" :: rest -> o.setup_only <- true; go rest
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  o

(* A child per workload, printing its own report and appending its run to
   the result file; exits non-zero when any child did. *)
let run_children o =
  let failed =
    List.filter
      (fun w ->
        let argv =
          Array.of_list
            ([
               Sys.executable_name; "--workload"; w; "--seed"; string_of_int o.seed; "--seconds";
               Printf.sprintf "%g" o.seconds; "--trace"; (if o.layers then "1" else "0");
             ]
            @ match o.out with Some f -> [ "-o"; f ] | None -> [])
        in
        let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr in
        snd (Unix.waitpid [] pid) <> Unix.WEXITED 0)
      workloads
  in
  if failed <> [] then begin
    prerr_endline ("host_bench: failed: " ^ String.concat ", " failed);
    exit 1
  end

let finish o runs =
  List.iter Results.print_run runs;
  Option.iter (fun f -> Results.append f runs) o.out;
  List.iter (fun r -> print_endline (Results.summary_line r)) runs;
  if List.exists (fun (r : Results.run) -> r.failed > 0) runs then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> (
    match (Results.read_file a, Results.read_file b) with
    | Ok ra, Ok rb -> if Results.compare_files ra rb then exit 1
    | Error e, _ | _, Error e ->
      prerr_endline ("host_bench: " ^ e);
      exit 2)
  | args -> (
    let o = parse args in
    let seconds = o.seconds in
    match (o.quick, o.workload) with
    | true, _ ->
      (* one pass of each in-process workload: the harness's use of the
         public API still compiles, runs and agrees with its references *)
      finish o
        (List.map
           (fun (w : Inproc.t) ->
             run_one ~setups:0 ~workload:w.name ~seed:o.seed ~seconds:0.0 ~layers:false ())
           Inproc.all)
    | false, Some workload when o.setup_only -> (
      (* one timed set-up of an end-to-end run, in its own process *)
      match Inproc.find workload with
      | Some w -> ignore (w.setup ())
      | None -> usage ())
    | false, Some workload -> finish o [ run_one ~workload ~seed:o.seed ~seconds ~layers:o.layers () ]
    | false, None -> run_children o)
