(* Host-side facts the harness reads about itself and the processes it
   starts: CPU time, peak and current resident memory (Linux /proc), a
   fixed calibration loop that exposes a slow or contended host, and free
   loopback ports. *)

let now = Clock.now

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))

(* utime + stime of every thread of [pid], in seconds; /proc reports clock
   ticks of USER_HZ, which Linux fixes at 100 for this interface *)
let cpu_of_pid pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some s ->
    (* the command name (field 2) may hold spaces: split after its ')';
       the list then starts at field 3, so utime (14) and stime (15) sit
       at indices 11 and 12 *)
    let from = String.rindex s ')' + 2 in
    let f = Array.of_list (String.split_on_char ' ' (String.sub s from (String.length s - from))) in
    (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* a "Vm*:  1234 kB" line of /proc/<pid>/status, in MB *)
let vm_mb ?(pid = "self") field =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.0
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ k; v ] when k = field ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                 float_of_int kb /. 1024.0)
           | _ -> None)
    |> Option.value ~default:0.0

let peak_rss_mb ?pid () = vm_mb ?pid:(Option.map string_of_int pid) "VmHWM"
let rss_mb ?pid () = vm_mb ?pid:(Option.map string_of_int pid) "VmRSS"

(* The noise probe: a million scattered read-modify-writes over a 512 KB
   table, L2-resident on the reference host, so it measures how fast this
   core runs right now. The table lives outside the OCaml heap and the
   loop allocates nothing, so GC settings of the code under test cannot
   move it. Larger tables also see the shared L3 and memory, but how much
   of the L3 other tenants leave free swings far more than the
   simulator's times do, and normalizing by them over-corrected (see the
   README). The best of three back-to-back loops filters
   millisecond-scale interruptions. *)
let calib_table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 16) in
  Bigarray.Array1.fill t 0;
  t

let calib_ms () =
  let once () =
    let t0 = now () in
    let x = ref 1 in
    for i = 1 to 1_000_000 do
      x := ((!x * 1103515245) + 12345) land 0xffff;
      calib_table.{!x} <- calib_table.{!x} + i
    done;
    (now () -. t0) *. 1e3
  in
  List.fold_left Float.min (once ()) [ once (); once () ]

(* the probe's time on the 2-core reference host: host-speed-normalized
   times are scaled by [reference_calib_ms /. measured] *)
let reference_calib_ms = 2.0

(* [f ()] with the probe's time just before it *)
let probed f =
  let c = calib_ms () in
  (c, f ())

(* wall seconds from starting [argv] (its output going to stderr) to its
   exit, which must be clean *)
let time_process argv =
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stderr Unix.stderr in
  let st = snd (Unix.waitpid [] pid) in
  let dt = now () -. t0 in
  if st <> Unix.WEXITED 0 then failwith (String.concat " " (Array.to_list argv) ^ ": failed");
  dt

let free_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> assert false)
