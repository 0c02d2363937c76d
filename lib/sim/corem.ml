type result = { cycles : float; dram_cycles : float }

let omp_fork_cycles = 6000.0
let omp_barrier_cycles = 500.0

let run_sim cfg traffic (w : Workset.t) ~threads ~cold_bytes ~first_invocation =
  let avg_hops = Machine_config.avg_hops cfg in
  let lanes = float_of_int cfg.Machine_config.simd_fp32_lanes in
  let peak_flops = float_of_int threads *. lanes in
  let compute = w.flops /. peak_flops in
  (* L2-filtered NoC traffic: a stream whose distinct region fits in the
     aggregated private L2 capacity is fetched once; otherwise every access
     goes to L3. *)
  let l2_bytes = float_of_int (threads * cfg.Machine_config.l2_kb * 1024) in
  let noc_bytes =
    Array.fold_left
      (fun acc (s : Workset.stream) ->
        let once = s.distinct_bytes in
        let every = s.accesses *. s.elem_bytes in
        if s.distinct_bytes <= l2_bytes then acc +. once else acc +. every)
      0.0 w.streams
  in
  let line = float_of_int cfg.Machine_config.line_bytes in
  Traffic.add traffic Traffic.Data ~bytes:noc_bytes ~hops:avg_hops;
  Traffic.add traffic Traffic.Control
    ~bytes:(noc_bytes /. line *. 16.0)
    ~hops:avg_hops;
  let noc_time =
    if threads = 1 then
      (* single core: limited by one core's L1 fill bandwidth *)
      noc_bytes /. float_of_int cfg.Machine_config.noc_link_bytes
    else Traffic.bulk_cycles cfg ~bytes:noc_bytes ~avg_hops
  in
  let dram = Dram.load_cycles cfg ~bytes:cold_bytes in
  let omp =
    if threads <= 1 then 0.0
    else if first_invocation then omp_fork_cycles
    else omp_barrier_cycles
  in
  let busy = Float.max compute noc_time in
  { cycles = busy +. omp +. dram; dram_cycles = dram }

let run cfg traffic (w : Workset.t) ~threads ~cold_bytes ~first_invocation =
  Prof.span (Obs.prof (Traffic.obs_of traffic)) "corem.run" (fun () ->
      run_sim cfg traffic w ~threads ~cold_bytes ~first_invocation)
