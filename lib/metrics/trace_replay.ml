type region_rec = {
  mutable execs : int;
  mutable cycles : float;
  mutable cats : (string * float ref) list; (* first-charge order *)
}

(* per-request lifecycle stages from a serving-session trace, host us *)
type req_rec = { mutable qw : float; mutable run : float; mutable wb : float }

type t = {
  geometry : Metrics.geometry;
  m : Metrics.t;
  mutable n_events : int;
  mutable pending : (string * float ref) list; (* charges since last region *)
  regions : (string * string, region_rec) Hashtbl.t;
  mutable region_order : (string * string) list; (* reversed *)
  requests : (string, req_rec) Hashtbl.t;
  mutable request_order : string list; (* first-seen, reversed *)
}

let create ?(mesh_x = 8) ?(mesh_y = 8) ?(banks = 64) ?(channels = 16) () =
  {
    geometry = { Metrics.mesh_x; mesh_y; banks; channels };
    m = Metrics.create ();
    n_events = 0;
    pending = [];
    regions = Hashtbl.create 16;
    region_order = [];
    requests = Hashtbl.create 16;
    request_order = [];
  }

let metrics t = t.m
let events t = t.n_events

(* ----- event parsing: the inverse of [Trace.event_to_json] ----- *)

exception Bad of string

let bad ev fmt = Printf.ksprintf (fun s -> raise (Bad (ev ^ " event: " ^ s))) fmt

let field ev j k =
  match Json.member k j with Some v -> v | None -> bad ev "missing field %s" k

let str ev j k =
  match field ev j k with Json.Str s -> s | _ -> bad ev "field %s is not a string" k

(* The trace's own float printer predates Json's total printing and renders
   non-finite floats as quoted strings; accept both spellings. *)
let num ev j k =
  match field ev j k with
  | Json.Num f -> f
  | Json.Str "inf" -> infinity
  | Json.Str "-inf" -> neg_infinity
  | Json.Str "nan" -> nan
  | _ -> bad ev "field %s is not a number" k

let int ev j k =
  match field ev j k with
  | Json.Num f when Float.is_integer f && Float.abs f < 0x1p62 -> int_of_float f
  | _ -> bad ev "field %s is not an integer" k

let bool ev j k =
  match field ev j k with Json.Bool b -> b | _ -> bad ev "field %s is not a boolean" k

let enum ev j k names =
  let s = str ev j k in
  match List.assoc_opt s names with Some v -> v | None -> bad ev "unknown %s %S" k s

let parse_event ev j : Trace.event option =
  let str = str ev j and num = num ev j and int = int ev j in
  let some (e : Trace.event) =
    ignore (int "seq");
    Some e
  in
  match ev with
  | "noc" ->
    let dir = enum ev j "dir" [ ("send", Trace.Send); ("deliver", Trace.Deliver) ] in
    some
      (Noc_packet
         { dir; category = str "cat"; bytes = num "bytes"; hops = num "hops"; packets = num "packets" })
  | "local" -> some (Local_move { channel = str "channel"; bytes = num "bytes" })
  | "sram" ->
    let phase = enum ev j "phase" [ ("issue", Trace.Issue); ("retire", Trace.Retire) ] in
    some
      (Sram_cmd
         {
           phase;
           kind = str "kind";
           label = str "label";
           tiles = int "tiles";
           lanes = int "lanes";
           cycles = num "cycles";
         })
  | "dram" -> some (Dram_burst { bytes = num "bytes"; cycles = num "cycles" })
  | "ttu" -> some (Ttu_transpose { bytes = num "bytes"; cycles = num "cycles" })
  | "jit" ->
    let dir = enum ev j "dir" [ ("enter", Trace.Enter); ("exit", Trace.Exit) ] in
    some (Jit_span { dir; region = str "region"; commands = int "commands"; cycles = num "cycles" })
  | "memo" -> some (Memo { key = str "key"; hit = bool ev j "hit" })
  | "decision" ->
    some
      (Offload_decision
         {
           kernel = str "kernel";
           target = str "target";
           core_cycles = num "core_cycles";
           imc_cycles = num "imc_cycles";
           reason = str "reason";
         })
  | "sync" -> some (Sync_barrier { cycles = num "cycles" })
  | "region" -> some (Region_exec { kernel = str "kernel"; where = str "where"; cycles = num "cycles" })
  | "fault" ->
    some
      (Fault { site = str "site"; action = str "action"; detail = str "detail"; cycles = num "cycles" })
  | "ctr" -> some (Counter { name = str "k"; value = num "v" })
  | "req" -> some (Request_span { request = str "request"; stage = str "stage"; us = num "us" })
  | _ -> None (* the summary line, or an unknown kind: skip (forward compatibility) *)

let event_of_json j =
  match Json.member "ev" j with
  | Some (Json.Str ev) -> ( try Ok (parse_event ev j) with Bad e -> Error e)
  | _ -> Error "trace line without a string ev field"

(* ----- replay ----- *)

let pending_add t cat v =
  match List.assoc_opt cat t.pending with
  | Some r -> r := !r +. v
  | None -> t.pending <- t.pending @ [ (cat, ref v) ]

let fold_pending t ~kernel ~where ~cycles =
  let key = (kernel, where) in
  let reg =
    match Hashtbl.find_opt t.regions key with
    | Some r -> r
    | None ->
      let r = { execs = 0; cycles = 0.0; cats = [] } in
      Hashtbl.add t.regions key r;
      t.region_order <- key :: t.region_order;
      r
  in
  reg.execs <- reg.execs + 1;
  reg.cycles <- reg.cycles +. cycles;
  List.iter
    (fun (cat, v) ->
      match List.assoc_opt cat reg.cats with
      | Some r -> r := !r +. !v
      | None -> reg.cats <- reg.cats @ [ (cat, ref !v) ])
    t.pending;
  t.pending <- []

let apply t (ev : Trace.event) =
  t.n_events <- t.n_events + 1;
  Metrics.apply t.m t.geometry ev;
  match ev with
  | Region_exec { kernel; where; cycles } -> fold_pending t ~kernel ~where ~cycles
  | Counter { name; value } when String.length name > 7 && String.starts_with ~prefix:"cycles." name ->
    pending_add t (String.sub name 7 (String.length name - 7)) value
  | Request_span { request; stage; us } -> (
    let r =
      match Hashtbl.find_opt t.requests request with
      | Some r -> r
      | None ->
        let r = { qw = 0.0; run = 0.0; wb = 0.0 } in
        Hashtbl.add t.requests request r;
        t.request_order <- request :: t.request_order;
        r
    in
    match stage with
    | "queue_wait" -> r.qw <- r.qw +. us
    | "run" -> r.run <- r.run +. us
    | "write_back" -> r.wb <- r.wb +. us
    | _ -> ())
  | _ -> ()

let feed_line t line =
  let line = String.trim line in
  if line = "" then Ok ()
  else
    match Result.bind (Json.parse line) event_of_json with
    | Error e -> Error e
    | Ok None -> Ok ()
    | Ok (Some ev) -> Ok (apply t ev)

let feed_channel t ic =
  let lineno = ref 0 in
  let rec go () =
    match input_line ic with
    | exception End_of_file -> Ok t.n_events
    | line -> (
      incr lineno;
      match feed_line t line with
      | Ok () -> go ()
      | Error e -> Error (Printf.sprintf "line %d: %s" !lineno e))
  in
  go ()

(* ----- bottleneck report ----- *)

let fmt = Json.fmt_float
let pct part whole = Printf.sprintf "%.1f%%" (Stats.percent ~part ~whole)

(* value-descending, key-ascending on ties: a total order on the rows *)
let rank rows =
  List.sort
    (fun (ka, va) (kb, vb) ->
      match compare vb va with 0 -> String.compare ka kb | c -> c)
    rows

let scalar_rows snap name label_key =
  List.filter_map
    (fun (s : Metrics.series) ->
      if s.name <> name then None
      else
        match (s.sample, List.assoc_opt label_key s.labels) with
        | Metrics.Value v, Some l -> Some (l, v)
        | _ -> None)
    snap

let scalar0 snap name =
  match
    List.find_opt
      (fun (s : Metrics.series) -> s.name = name && s.labels = [])
      snap
  with
  | Some { sample = Metrics.Value v; _ } -> v
  | _ -> 0.0

let hist0 snap name labels =
  match
    List.find_opt
      (fun (s : Metrics.series) -> s.name = name && s.labels = labels)
      snap
  with
  | Some { sample = Metrics.Dist h; _ } -> Some h
  | _ -> None

let report ?(top = 8) t =
  let b = Buffer.create 4096 in
  let snap = Metrics.snapshot t.m in
  Printf.bprintf b "trace analysis: %d events\n" t.n_events;

  (* cycle breakdown *)
  let cats =
    List.filter_map
      (fun (s : Metrics.series) ->
        if s.name <> "cycles" then None
        else
          match (s.sample, List.assoc_opt "cat" s.labels) with
          | Metrics.Dist h, Some cat -> Some (cat, h)
          | _ -> None)
      snap
  in
  let total = List.fold_left (fun acc (_, h) -> acc +. h.Metrics.sum) 0.0 cats in
  Buffer.add_string b "\ncycle breakdown\n";
  List.iter
    (fun (cat, _) ->
      let h = List.assoc cat cats in
      Printf.bprintf b "  %-14s %14s  %6s  (%d charges)\n" cat
        (fmt h.Metrics.sum) (pct h.Metrics.sum total) h.Metrics.count)
    (rank (List.map (fun (c, h) -> (c, h.Metrics.sum)) cats));
  Printf.bprintf b "  %-14s %14s\n" "total" (fmt total);

  (* NoC: per-category + hottest links + heatmap *)
  let noc = scalar_rows snap "noc.byte_hops" "cat" in
  let noc_total = List.fold_left (fun a (_, v) -> a +. v) 0.0 noc in
  Buffer.add_string b "\nnoc byte-hops by category\n";
  List.iter
    (fun (cat, v) ->
      Printf.bprintf b "  %-14s %14s  %6s\n" cat (fmt v) (pct v noc_total))
    (rank noc);
  let links = scalar_rows snap "noc.link.byte_hops" "link" in
  let nonzero = List.length (List.filter (fun (_, v) -> v > 0.0) links) in
  Printf.bprintf b "\nhottest noc links (top %d of %d active)\n" top nonzero;
  List.iteri
    (fun i (l, v) ->
      if i < top && v > 0.0 then
        Printf.bprintf b "  %2d. %-12s %14s  %6s\n" (i + 1) l (fmt v)
          (pct v noc_total))
    (rank links);
  if links <> [] then begin
    (* router egress load: sum of byte-hops over links leaving each router *)
    let { Metrics.mesh_x = mx; mesh_y = my; _ } = t.geometry in
    let egress = Array.make_matrix my mx 0.0 in
    List.iter
      (fun (l, v) ->
        try
          Scanf.sscanf l "%d,%d>%d,%d" (fun sx sy _ _ ->
              if sx >= 0 && sx < mx && sy >= 0 && sy < my then
                egress.(sy).(sx) <- egress.(sy).(sx) +. v)
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> ())
      links;
    let peak = Array.fold_left (Array.fold_left Float.max) 0.0 egress in
    let shades = " .:-=+*#%@" in
    Printf.bprintf b "\nmesh heatmap (router egress, peak=%s byte-hops)\n"
      (fmt peak);
    for y = 0 to my - 1 do
      Buffer.add_string b "  ";
      for x = 0 to mx - 1 do
        let v = egress.(y).(x) in
        let level =
          if peak <= 0.0 then 0
          else max 0 (min 9 (int_of_float (v /. peak *. 9.0 +. 0.5)))
        in
        Buffer.add_char b shades.[level]
      done;
      Buffer.add_char b '\n'
    done
  end;

  (* SRAM banks *)
  let banks = scalar_rows snap "imc.bank.busy_cycles" "bank" in
  if banks <> [] then begin
    let btotal = List.fold_left (fun a (_, v) -> a +. v) 0.0 banks in
    Printf.bprintf b "\nbusiest sram banks (top %d of %d, busy cycles)\n" top
      (List.length banks);
    List.iteri
      (fun i (l, v) ->
        if i < top && v > 0.0 then
          Printf.bprintf b "  %2d. bank %-4s %14s  %6s\n" (i + 1) l (fmt v)
            (pct v btotal))
      (rank banks)
  end;
  (match hist0 snap "imc.cmd_cycles" [ ("kind", "compute") ] with
  | Some h ->
    Printf.bprintf b "  compute cmd latency: p50=%s p90=%s (%d cmds)\n"
      (fmt (Metrics.hist_quantile h 0.5))
      (fmt (Metrics.hist_quantile h 0.9))
      h.Metrics.count
  | None -> ());

  (* DRAM *)
  let dram_bytes = scalar0 snap "dram.bytes" in
  if dram_bytes > 0.0 then begin
    Printf.bprintf b "\ndram: %s bytes in %s bursts, %s busy cycles\n"
      (fmt dram_bytes)
      (fmt (scalar0 snap "dram.bursts"))
      (fmt (scalar0 snap "dram.busy_cycles"));
    (match hist0 snap "dram.burst_bytes" [] with
    | Some h ->
      Printf.bprintf b "  burst bytes: p50=%s p90=%s\n"
        (fmt (Metrics.hist_quantile h 0.5))
        (fmt (Metrics.hist_quantile h 0.9))
    | None -> ());
    let chans = scalar_rows snap "dram.channel.bytes" "ch" in
    match rank chans with
    | (hot, hv) :: _ ->
      Printf.bprintf b "  channels: %d active, hottest ch%s=%s (%s)\n"
        (List.length (List.filter (fun (_, v) -> v > 0.0) chans))
        hot (fmt hv) (pct hv dram_bytes)
    | [] -> ()
  end;

  (* JIT *)
  let lowerings = scalar0 snap "jit.lowerings" in
  let hits = scalar0 snap "jit.memo_hits" in
  let misses = scalar0 snap "jit.memo_misses" in
  if lowerings > 0.0 || hits > 0.0 || misses > 0.0 then begin
    Printf.bprintf b
      "\njit: %s lowerings, memo %s hits / %s misses (hit rate %s)\n"
      (fmt lowerings) (fmt hits) (fmt misses)
      (pct hits (hits +. misses));
    match hist0 snap "jit.lower_cycles" [] with
    | Some h ->
      Printf.bprintf b "  lowering cycles: p50=%s max<=%s\n"
        (fmt (Metrics.hist_quantile h 0.5))
        (fmt (Metrics.hist_quantile h 1.0))
    | None -> ()
  end;

  (* faults: only present when a run injected faults, so pre-existing
     traces keep their reports byte-identical *)
  let faults =
    List.filter_map
      (fun (s : Metrics.series) ->
        if s.name <> "fault" then None
        else
          match
            ( s.sample,
              List.assoc_opt "site" s.labels,
              List.assoc_opt "action" s.labels )
          with
          | Metrics.Value v, Some site, Some action ->
            Some (site ^ "/" ^ action, v)
          | _ -> None)
      snap
  in
  if faults <> [] then begin
    let fcycles = scalar_rows snap "fault.cycles" "site" in
    let lost = List.fold_left (fun a (_, v) -> a +. v) 0.0 fcycles in
    Printf.bprintf b "\nfaults (cycles lost to faults: %s, %s of total)\n"
      (fmt lost) (pct lost total);
    List.iter
      (fun (k, v) -> Printf.bprintf b "  %-22s %10s\n" k (fmt v))
      (rank faults);
    List.iter
      (fun (site, v) ->
        Printf.bprintf b "  cycles lost @ %-8s %14s  %6s\n" site (fmt v)
          (pct v total))
      (rank fcycles)
  end;

  (* per-region critical category *)
  let order = List.rev t.region_order in
  if order <> [] || t.pending <> [] then begin
    Buffer.add_string b "\nregions (critical category)\n";
    List.iter
      (fun key ->
        let kernel, where = key in
        let r = Hashtbl.find t.regions key in
        let crit =
          List.fold_left
            (fun acc (cat, v) ->
              match acc with
              | Some (_, bv) when bv >= !v -> acc
              | _ -> Some (cat, !v))
            None r.cats
        in
        let ctotal = List.fold_left (fun a (_, v) -> a +. !v) 0.0 r.cats in
        match crit with
        | Some (cat, v) ->
          Printf.bprintf b "  %-24s x%-3d %14s  critical: %s (%s)\n"
            (kernel ^ "@" ^ where) r.execs (fmt r.cycles) cat (pct v ctotal)
        | None ->
          Printf.bprintf b "  %-24s x%-3d %14s\n" (kernel ^ "@" ^ where)
            r.execs (fmt r.cycles))
      order;
    if t.pending <> [] then begin
      let ptotal = List.fold_left (fun a (_, v) -> a +. !v) 0.0 t.pending in
      let crit =
        List.fold_left
          (fun acc (cat, v) ->
            match acc with
            | Some (_, bv) when bv >= !v -> acc
            | _ -> Some (cat, !v))
          None t.pending
      in
      match crit with
      | Some (cat, v) ->
        Printf.bprintf b "  %-24s %18s  critical: %s (%s)\n" "(outside regions)"
          (fmt ptotal) cat (pct v ptotal)
      | None -> ()
    end
  end;

  (* serve requests: only present in serving-session traces, so
     simulator-run reports stay byte-identical *)
  if t.request_order <> [] then begin
    let reqs =
      List.rev_map
        (fun id ->
          let r = Hashtbl.find t.requests id in
          (id, r, r.qw +. r.run +. r.wb))
        t.request_order
    in
    let n = List.length reqs in
    let sum f = List.fold_left (fun a (_, r, _) -> a +. f r) 0.0 reqs in
    let qw = sum (fun r -> r.qw)
    and rn = sum (fun r -> r.run)
    and wb = sum (fun r -> r.wb) in
    let all = qw +. rn +. wb in
    Printf.bprintf b "\nserve requests (%d, queueing vs execution)\n" n;
    List.iter
      (fun (stage, v) ->
        Printf.bprintf b "  %-12s %14.1f us  %6s  (mean %.1f us)\n" stage v
          (pct v all)
          (v /. float_of_int (max 1 n)))
      [ ("queue_wait", qw); ("run", rn); ("write_back", wb) ];
    (* slowest requests, total-descending (id-ascending on ties) *)
    let ranked =
      List.sort
        (fun (ia, _, ta) (ib, _, tb) ->
          match compare tb ta with 0 -> String.compare ia ib | c -> c)
        reqs
    in
    Printf.bprintf b "  slowest requests (top %d)\n" (min top n);
    List.iteri
      (fun i (id, r, tot) ->
        if i < top then
          Printf.bprintf b "  %2d. id=%-12s %10.1f us  queue %s / run %s\n"
            (i + 1) id tot (pct r.qw tot) (pct r.run tot))
      ranked
  end;
  Buffer.contents b
