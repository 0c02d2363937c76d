type noc_dir = Send | Deliver
type cmd_phase = Issue | Retire
type span_dir = Enter | Exit

type event =
  | Noc_packet of {
      dir : noc_dir;
      category : string;
      bytes : float;
      hops : float;
      packets : float;
    }
  | Local_move of { channel : string; bytes : float }
  | Sram_cmd of {
      phase : cmd_phase;
      kind : string;
      label : string;
      tiles : int;
      lanes : int;
      cycles : float;
    }
  | Dram_burst of { bytes : float; cycles : float }
  | Ttu_transpose of { bytes : float; cycles : float }
  | Jit_span of { dir : span_dir; region : string; commands : int; cycles : float }
  | Memo of { key : string; hit : bool }
  | Offload_decision of {
      kernel : string;
      target : string;
      core_cycles : float;
      imc_cycles : float;
      reason : string;
    }
  | Sync_barrier of { cycles : float }
  | Region_exec of { kernel : string; where : string; cycles : float }
  | Fault of { site : string; action : string; detail : string; cycles : float }
  | Counter of { name : string; value : float }
  | Request_span of { request : string; stage : string; us : float }

type format = Jsonl | Chrome

(* ----- JSON fragments (stdlib only; fixed field order, canonical floats,
   so equal event streams serialize to equal bytes) ----- *)

let json_float f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else if not (Float.is_finite f) then
    if Float.is_nan f then "\"nan\""
    else if f > 0.0 then "\"inf\""
    else "\"-inf\""
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let noc_dir_name = function Send -> "send" | Deliver -> "deliver"
let cmd_phase_name = function Issue -> "issue" | Retire -> "retire"
let span_dir_name = function Enter -> "enter" | Exit -> "exit"

let event_to_json ~seq ev =
  let b = Buffer.create 96 in
  Printf.bprintf b "{\"seq\":%d," seq;
  (match ev with
  | Noc_packet { dir; category; bytes; hops; packets } ->
    Printf.bprintf b
      "\"ev\":\"noc\",\"dir\":\"%s\",\"cat\":%s,\"bytes\":%s,\"hops\":%s,\"packets\":%s"
      (noc_dir_name dir) (json_string category) (json_float bytes)
      (json_float hops) (json_float packets)
  | Local_move { channel; bytes } ->
    Printf.bprintf b "\"ev\":\"local\",\"channel\":%s,\"bytes\":%s"
      (json_string channel) (json_float bytes)
  | Sram_cmd { phase; kind; label; tiles; lanes; cycles } ->
    Printf.bprintf b
      "\"ev\":\"sram\",\"phase\":\"%s\",\"kind\":%s,\"label\":%s,\"tiles\":%d,\"lanes\":%d,\"cycles\":%s"
      (cmd_phase_name phase) (json_string kind) (json_string label) tiles lanes
      (json_float cycles)
  | Dram_burst { bytes; cycles } ->
    Printf.bprintf b "\"ev\":\"dram\",\"bytes\":%s,\"cycles\":%s"
      (json_float bytes) (json_float cycles)
  | Ttu_transpose { bytes; cycles } ->
    Printf.bprintf b "\"ev\":\"ttu\",\"bytes\":%s,\"cycles\":%s"
      (json_float bytes) (json_float cycles)
  | Jit_span { dir; region; commands; cycles } ->
    Printf.bprintf b
      "\"ev\":\"jit\",\"dir\":\"%s\",\"region\":%s,\"commands\":%d,\"cycles\":%s"
      (span_dir_name dir) (json_string region) commands (json_float cycles)
  | Memo { key; hit } ->
    Printf.bprintf b "\"ev\":\"memo\",\"key\":%s,\"hit\":%b" (json_string key) hit
  | Offload_decision { kernel; target; core_cycles; imc_cycles; reason } ->
    Printf.bprintf b
      "\"ev\":\"decision\",\"kernel\":%s,\"target\":%s,\"core_cycles\":%s,\"imc_cycles\":%s,\"reason\":%s"
      (json_string kernel) (json_string target) (json_float core_cycles)
      (json_float imc_cycles) (json_string reason)
  | Sync_barrier { cycles } ->
    Printf.bprintf b "\"ev\":\"sync\",\"cycles\":%s" (json_float cycles)
  | Region_exec { kernel; where; cycles } ->
    Printf.bprintf b "\"ev\":\"region\",\"kernel\":%s,\"where\":%s,\"cycles\":%s"
      (json_string kernel) (json_string where) (json_float cycles)
  | Fault { site; action; detail; cycles } ->
    Printf.bprintf b
      "\"ev\":\"fault\",\"site\":%s,\"action\":%s,\"detail\":%s,\"cycles\":%s"
      (json_string site) (json_string action) (json_string detail)
      (json_float cycles)
  | Counter { name; value } ->
    Printf.bprintf b "\"ev\":\"ctr\",\"k\":%s,\"v\":%s" (json_string name)
      (json_float value)
  | Request_span { request; stage; us } ->
    Printf.bprintf b "\"ev\":\"req\",\"request\":%s,\"stage\":%s,\"us\":%s"
      (json_string request) (json_string stage) (json_float us));
  Buffer.add_char b '}';
  Buffer.contents b

(* ----- derived counter table ----- *)

module Metrics = struct
  type t = (string, float ref) Hashtbl.t

  let create () : t = Hashtbl.create 32

  let add (t : t) name v =
    match Hashtbl.find_opt t name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add t name (ref v)

  let get (t : t) name =
    match Hashtbl.find_opt t name with Some r -> !r | None -> 0.0

  let to_alist (t : t) =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
end

(* ----- sinks ----- *)

type writer = { write : string -> unit; flush : unit -> unit }

type chrome_state = { w : writer; mutable first : bool; mutable now : float }

type sink = Null | Jsonl_sink of writer
  | Chrome_sink of chrome_state

type t = {
  enabled : bool;
  metrics : Metrics.t;
  mutable seq : int;
  mutable closed : bool;
  sink : sink;
}

let null = { enabled = false; metrics = Metrics.create (); seq = 0; closed = true; sink = Null }

let make sink = { enabled = true; metrics = Metrics.create (); seq = 0; closed = false; sink }

let buffer_writer b = { write = Buffer.add_string b; flush = (fun () -> ()) }

let channel_writer oc =
  { write = output_string oc; flush = (fun () -> flush oc) }

let of_writer fmt w =
  match fmt with
  | Jsonl -> make (Jsonl_sink w)
  | Chrome ->
    w.write "{\"traceEvents\":[";
    make (Chrome_sink { w; first = true; now = 0.0 })

let to_buffer fmt b = of_writer fmt (buffer_writer b)
let to_channel fmt oc = of_writer fmt (channel_writer oc)

let enabled t = t.enabled

(* Derived counters: every event updates the flat table so aggregate totals
   can be cross-checked against Report / Breakdown / Traffic. Only [Send]
   updates NoC byte counters ([Deliver] marks completion of bytes already
   counted). The accumulation expressions mirror Traffic exactly so that
   float results are bit-identical. *)
let record_metrics m = function
  | Noc_packet { dir = Send; category; bytes; hops; packets } ->
    Metrics.add m ("noc.bytes." ^ category) bytes;
    Metrics.add m ("noc.byte_hops." ^ category) (bytes *. hops);
    Metrics.add m ("noc.packets." ^ category) packets
  | Noc_packet { dir = Deliver; _ } -> ()
  | Local_move { channel; bytes } -> Metrics.add m ("local.bytes." ^ channel) bytes
  | Sram_cmd { phase = Retire; cycles; _ } ->
    Metrics.add m "sram.commands" 1.0;
    Metrics.add m "sram.cmd_cycles" cycles
  | Sram_cmd { phase = Issue; _ } -> ()
  | Dram_burst { bytes; _ } -> Metrics.add m "dram.bytes" bytes
  | Ttu_transpose { bytes; _ } -> Metrics.add m "ttu.bytes" bytes
  | Jit_span { dir = Exit; commands; _ } ->
    Metrics.add m "jit.lowerings" 1.0;
    Metrics.add m "jit.commands" (float_of_int commands)
  | Jit_span { dir = Enter; _ } -> ()
  | Memo { hit; _ } ->
    Metrics.add m (if hit then "jit.memo_hits" else "jit.memo_misses") 1.0
  | Offload_decision { target; _ } -> Metrics.add m ("decision." ^ target) 1.0
  | Sync_barrier _ -> Metrics.add m "sync.barriers" 1.0
  | Region_exec { where; _ } -> Metrics.add m ("regions." ^ where) 1.0
  | Fault { site; action; cycles; _ } ->
    Metrics.add m (Printf.sprintf "fault.%s.%s" site action) 1.0;
    if cycles > 0.0 then Metrics.add m ("fault.cycles." ^ site) cycles
  | Counter { name; value } -> Metrics.add m name value
  | Request_span { stage; us; _ } ->
    Metrics.add m ("serve.spans." ^ stage) 1.0;
    Metrics.add m ("serve.span_us." ^ stage) us

(* Chrome trace_event rendering: cycle-bearing events become complete ("X")
   slices on a per-family track, advancing a sequential clock; the rest are
   instants ("i"). The viewer's "us" unit reads as simulated cycles. *)
let chrome_row = function
  | Sram_cmd _ | Sync_barrier _ -> ("sram", 0)
  | Dram_burst _ | Ttu_transpose _ -> ("dram", 1)
  | Noc_packet _ | Local_move _ -> ("noc", 2)
  | Jit_span _ | Memo _ -> ("jit", 3)
  | Offload_decision _ | Region_exec _ | Fault _ | Counter _ -> ("engine", 4)
  | Request_span _ -> ("serve", 5)

let chrome_event (c : chrome_state) ev =
  let name, detail, dur =
    match ev with
    | Noc_packet { dir; category; bytes; _ } ->
      ( Printf.sprintf "noc:%s:%s" (noc_dir_name dir) category,
        Printf.sprintf "\"bytes\":%s" (json_float bytes),
        0.0 )
    | Local_move { channel; bytes } ->
      ( "local:" ^ channel, Printf.sprintf "\"bytes\":%s" (json_float bytes), 0.0 )
    | Sram_cmd { phase = Issue; _ } -> ("", "", 0.0)
    | Sram_cmd { phase = Retire; kind; label; cycles; _ } ->
      ( Printf.sprintf "%s(%s)" kind label, "", cycles )
    | Dram_burst { bytes; cycles } ->
      ("dram-burst", Printf.sprintf "\"bytes\":%s" (json_float bytes), cycles)
    | Ttu_transpose { bytes; cycles } ->
      ("ttu-transpose", Printf.sprintf "\"bytes\":%s" (json_float bytes), cycles)
    | Jit_span { dir = Enter; _ } -> ("", "", 0.0)
    | Jit_span { dir = Exit; region; commands; cycles } ->
      ( "jit:" ^ region, Printf.sprintf "\"commands\":%d" commands, cycles )
    | Memo { hit; _ } -> ((if hit then "memo-hit" else "memo-miss"), "", 0.0)
    | Offload_decision { kernel; target; _ } ->
      (Printf.sprintf "eq2:%s->%s" kernel target, "", 0.0)
    | Sync_barrier { cycles } -> ("sync-barrier", "", cycles)
    | Region_exec { kernel; where; cycles } ->
      ( Printf.sprintf "region:%s@%s" kernel where,
        Printf.sprintf "\"cycles\":%s" (json_float cycles),
        0.0 )
    | Fault { site; action; cycles; _ } ->
      ( Printf.sprintf "fault:%s:%s" site action,
        Printf.sprintf "\"cycles\":%s" (json_float cycles),
        0.0 )
    | Counter _ -> ("", "", 0.0)
    | Request_span { request; stage; us } ->
      (* host-time span: render as an instant (the Chrome clock on this
         timeline counts simulated cycles, not microseconds) *)
      ( Printf.sprintf "req:%s:%s" request stage,
        Printf.sprintf "\"us\":%s" (json_float us),
        0.0 )
  in
  (match ev with
  | Counter _ -> None (* rendered by [emit], which sees the cumulative value *)
  | _ when name = "" -> None
  | _ ->
    let _, tid = chrome_row ev in
    let args = if detail = "" then "" else Printf.sprintf ",\"args\":{%s}" detail in
    if dur > 0.0 then begin
      let ts = c.now in
      c.now <- c.now +. dur;
      Some
        (Printf.sprintf
           "{\"name\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":0,\"tid\":%d%s}"
           (json_string name) (json_float ts) (json_float dur) tid args)
    end
    else
      Some
        (Printf.sprintf
           "{\"name\":%s,\"ph\":\"i\",\"ts\":%s,\"pid\":0,\"tid\":%d,\"s\":\"t\"%s}"
           (json_string name) (json_float c.now) tid args))

let emit t ev =
  if t.enabled && not t.closed then begin
    record_metrics t.metrics ev;
    t.seq <- t.seq + 1;
    match t.sink with
    | Null -> ()
    | Jsonl_sink w ->
      w.write (event_to_json ~seq:t.seq ev);
      w.write "\n"
    | Chrome_sink c -> (
      let line =
        match ev with
        | Counter { name; _ } ->
          (* render the cumulative value, not the increment *)
          Some
            (Printf.sprintf
               "{\"name\":%s,\"ph\":\"C\",\"ts\":%s,\"pid\":0,\"args\":{%s:%s}}"
               (json_string name) (json_float c.now) (json_string name)
               (json_float (Metrics.get t.metrics name)))
        | _ -> chrome_event c ev
      in
      match line with
      | None -> ()
      | Some line ->
        if c.first then c.first <- false else c.w.write ",";
        c.w.write "\n";
        c.w.write line)
  end

let counter t name = Metrics.get t.metrics name
let counters t = Metrics.to_alist t.metrics
let events_seen t = t.seq

let close t =
  if t.enabled && not t.closed then begin
    t.closed <- true;
    match t.sink with
    | Null -> ()
    | Jsonl_sink w ->
      let b = Buffer.create 256 in
      Buffer.add_string b "{\"ev\":\"summary\",\"counters\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (json_string k);
          Buffer.add_char b ':';
          Buffer.add_string b (json_float v))
        (counters t);
      Buffer.add_string b "}}\n";
      w.write (Buffer.contents b);
      w.flush ()
    | Chrome_sink c ->
      c.w.write "\n]}\n";
      c.w.flush ()
  end
