type result = { cycles : float; dram_cycles : float; watchdog : bool }

let stream_setup_cycles cfg ~streams =
  float_of_int
    (cfg.Machine_config.sel3_init_cycles * streams * cfg.Machine_config.l3_banks
    / max 1 (cfg.Machine_config.l3_banks / 4))

let run_sim cfg traffic (w : Workset.t) ~cold_bytes =
  let banks = float_of_int cfg.Machine_config.l3_banks in
  let avg_hops = Machine_config.avg_hops cfg in
  (* Near-memory compute throughput: SEL3-coordinated SIMD at each bank. *)
  let compute =
    w.flops /. (banks *. cfg.Machine_config.sel3_flops_per_cycle)
  in
  (* Operand delivery is coupled to the bank's SRAM bandwidth: every access
     reads/writes the bank (the SEL3 buffers hold stream FIFOs, not a
     cache), so high-reuse dataflows such as the inner product are starved
     here even though their distinct footprint is small — the paper's
     Fig. 15 Near-L3 behaviour. *)
  let accessed_bytes =
    Array.fold_left
      (fun acc (s : Workset.stream) -> acc +. (s.accesses *. s.elem_bytes))
      0.0 w.streams
  in
  let local_mem =
    accessed_bytes
    /. (banks *. float_of_int cfg.Machine_config.l3_bank_bytes_per_cycle)
  in
  (* Reuse that near-memory cannot capture: when a small region (a row, a
     weight table, a centroid set) is re-referenced from every bank,
     near-memory re-fetches it across the NoC each time — this is why
     Near-L3 loses on kmeans in the paper. Window-style reuse over a large
     region (stencil neighbours) stays bank-local and is already covered by
     [local_mem]. Indirect accesses are remote with high probability. *)
  let remote_frac = (banks -. 1.0) /. banks in
  (* A reused operand small enough for the 64kB SEL3 buffer is held there
     (how NSC "partially recognizes the broadcast pattern" for the outer
     product, §8); a broadcast table too big for the buffer but far smaller
     than the distributed working set is re-fetched across the NoC (the
     kmeans centroids); window or matrix-sized reuse re-streams from the
     local bank, already covered by [local_mem]. *)
  let buffer_bytes = float_of_int (cfg.Machine_config.sel3_buffer_kb * 1024) in
  let broadcast_threshold = 4.0e6 in
  let reuse_noc_bytes =
    Array.fold_left
      (fun acc (s : Workset.stream) ->
        let total = s.accesses *. s.elem_bytes in
        let extra = Float.max 0.0 (total -. s.distinct_bytes) in
        if s.indirect then acc +. (total *. remote_frac)
        else if
          Workset.reuse_factor s > 4.0
          && s.distinct_bytes > buffer_bytes
          && s.distinct_bytes < broadcast_threshold
        then acc +. (extra *. remote_frac)
        else acc)
      0.0 w.streams
  in
  if reuse_noc_bytes > 0.0 then
    Traffic.add traffic Traffic.Data ~bytes:reuse_noc_bytes ~hops:avg_hops;
  let reuse_noc =
    Traffic.bulk_cycles_in traffic ~detail:"near-reuse" ~bytes:reuse_noc_bytes
      ~avg_hops
  in
  (* Offload management: stream configuration plus flow-control messages
     every 16 cache lines between SEcore and SEL3. *)
  let setup = stream_setup_cycles cfg ~streams:(Array.length w.streams) in
  let lines = Workset.touched_bytes w /. float_of_int cfg.Machine_config.line_bytes in
  let flow_msgs = lines /. 16.0 in
  Traffic.add traffic Traffic.Offload
    ~bytes:((flow_msgs *. 8.0) +. (float_of_int (Array.length w.streams) *. 64.0))
    ~hops:avg_hops;
  let obs = Traffic.obs_of traffic in
  let metrics = Obs.metrics obs in
  let faults = Traffic.faults_of traffic in
  let dram = Dram.load_traced ?faults obs cfg ~bytes:cold_bytes in
  let busy = Float.max compute (Float.max local_mem reuse_noc) in
  (* Stall breakdown: which resource bounds the stream engines. These are
     live-only gauges (no corresponding trace event — the event stream is
     byte-pinned by golden tests), so trace replay intentionally omits
     them. *)
  if Metrics.enabled metrics then begin
    List.iter
      (fun (part, v) ->
        Metrics.gauge_add metrics ~labels:[ ("part", part) ] "near.cycles" v)
      [
        ("compute", compute);
        ("bank-bw", local_mem);
        ("noc-reuse", reuse_noc);
        ("setup", setup);
        ("dram", dram);
      ];
    let cause =
      if compute >= local_mem && compute >= reuse_noc then "compute"
      else if local_mem >= reuse_noc then "bank-bw"
      else "noc-reuse"
    in
    Metrics.incr metrics ~labels:[ ("cause", cause) ] "near.bound" 1.0
  end;
  (* Watchdog: one draw per offload attempt. A hung stream engine is
     detected after the attempt's full window — the caller wastes these
     cycles and retries (or falls back to core execution, which never
     faults, guaranteeing termination). *)
  let watchdog =
    match faults with
    | None -> false
    | Some fi ->
      let hung = Fault.watchdog_timeout fi in
      if hung && Obs.on obs then
        Obs.emit obs
          (Trace.Fault
             { site = "watchdog"; action = "inject"; detail = "near-stream"; cycles = 0.0 });
      hung
  in
  { cycles = busy +. setup +. dram; dram_cycles = dram; watchdog }

let run cfg traffic (w : Workset.t) ~cold_bytes =
  Prof.span (Obs.prof (Traffic.obs_of traffic)) "near.run" (fun () ->
      run_sim cfg traffic w ~cold_bytes)
