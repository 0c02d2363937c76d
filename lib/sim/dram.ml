let load_cycles cfg ~bytes =
  if bytes <= 0.0 then 0.0
  else bytes /. Machine_config.dram_bytes_per_cycle cfg

let transpose_cycles cfg ~bytes =
  if bytes <= 0.0 then 0.0
  else begin
    let lines = bytes /. float_of_int cfg.Machine_config.line_bytes in
    let per_bank = lines /. float_of_int cfg.l3_banks in
    per_bank *. float_of_int Bitserial.transpose_cycles_per_line
  end

(* A seeded channel-stall fault adds a fixed penalty to one burst; the
   penalty is emitted as a fault event so analyze can attribute it. *)
let stall_penalty ?faults obs ~bytes =
  match faults with
  | None -> 0.0
  | Some fi ->
    if bytes <= 0.0 then 0.0
    else begin
      let stall = Fault.dram_stall_cycles fi in
      if stall > 0.0 && Obs.on obs then
        Obs.emit obs
          (Trace.Fault
             { site = "dram"; action = "inject"; detail = "channel-stall"; cycles = stall });
      stall
    end

(* One burst: its event, its stall draw, and a span leaf recorded under
   the same [bytes > 0] guard as the event, so the span count reconciles
   with the trace's event count. *)
let traced ~span ~event ?faults obs cycles_of cfg ~bytes =
  let prof = Obs.prof obs in
  let t0 = if Prof.enabled prof then Prof.now_ns () else 0.0 in
  let cycles = cycles_of cfg ~bytes in
  if bytes > 0.0 && Obs.on obs then Obs.emit obs (event bytes cycles);
  let r = cycles +. stall_penalty ?faults obs ~bytes in
  if bytes > 0.0 && Prof.enabled prof then Prof.record prof span ~ns:(Prof.now_ns () -. t0);
  r

let load_traced ?faults obs cfg ~bytes =
  traced ~span:"dram.load"
    ~event:(fun bytes cycles -> Trace.Dram_burst { bytes; cycles })
    ?faults obs load_cycles cfg ~bytes

let transpose_traced ?faults obs cfg ~bytes =
  traced ~span:"dram.transpose"
    ~event:(fun bytes cycles -> Trace.Ttu_transpose { bytes; cycles })
    ?faults obs transpose_cycles cfg ~bytes

let fill_transposed_cycles cfg ~bytes ~resident =
  let fetch = if resident then 0.0 else load_cycles cfg ~bytes in
  (* L3-internal move of resident lines to the compute ways *)
  let internal =
    bytes
    /. float_of_int (cfg.Machine_config.l3_banks * cfg.htree_bytes_per_cycle)
  in
  Float.max (Float.max fetch internal) (transpose_cycles cfg ~bytes)
