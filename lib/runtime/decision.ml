type target = In_memory | Near_memory

type verdict = {
  target : target;
  core_cycles : float;
  imc_cycles : float;
  reason : string;
}

let target_name = function In_memory -> "in-memory" | Near_memory -> "near-memory"

type override = Auto | Force_imc | Force_core

type policy =
  | Heuristic
  | Tuned of { default : override; per_kernel : (string * override) list }

let override_name = function
  | Auto -> "auto"
  | Force_imc -> "force-imc"
  | Force_core -> "force-core"

let override_of_string = function
  | "auto" | "heuristic" -> Ok Auto
  | "force-imc" | "imc" -> Ok Force_imc
  | "force-core" | "core" -> Ok Force_core
  | s ->
    Error
      (Printf.sprintf "unknown eq2 override %s (auto|force-imc|force-core)" s)

let resolve policy ~kernel =
  match policy with
  | Heuristic -> Auto
  | Tuned { default; per_kernel } -> (
    match List.assoc_opt kernel per_kernel with
    | Some ov -> ov
    | None -> default)

(* Mitigation re-targeting rides the same decision machinery as Eq. 2 so a
   trace shows fault fallbacks next to ordinary offload verdicts. The
   faulted target's latency is recorded as infinite — that is what the
   fault made it. *)
let fault_fallback ?(obs = Obs.null) ?(kernel = "") ~site ~target () =
  if Obs.on obs then
    Obs.emit obs
      (Trace.Offload_decision
         {
           kernel;
           target;
           core_cycles = 0.0;
           imc_cycles = infinity;
           reason = Printf.sprintf "fault fallback: %s fault exhausted retries" site;
         })

let decide ?(obs = Obs.null) ?(kernel = "") ?(override = Auto) cfg ~ops
    ~node_count ~dtype ~elems ~flops ~data_bytes ~fits ~jit_known =
  let traced v =
    if Obs.on obs then
      Obs.emit obs
        (Trace.Offload_decision
           {
             kernel;
             target = target_name v.target;
             core_cycles = v.core_cycles;
             imc_cycles = v.imc_cycles;
             reason = v.reason;
           });
    v
  in
  if not fits then
    traced
      {
        target = Near_memory;
        core_cycles = 0.0;
        imc_cycles = infinity;
        reason = "no valid transposed layout";
      }
  else begin
    (* LHS: N_elem * N_op / TP_core, with the caller folding N_elem into
       [flops]; a core execution is also bounded by streaming the working
       set through the NoC at bisection bandwidth. *)
    let core =
      Float.max
        (flops /. Machine_config.peak_simd_flops_per_cycle cfg)
        (data_bytes /. (2.0 *. Machine_config.bisection_bytes_per_cycle cfg))
    in
    (* RHS: sum of bit-serial op latencies (waves when the data exceeds the
       bitline capacity) plus the JIT term. *)
    let waves =
      Float.max 1.0 (elems /. float_of_int (Machine_config.total_bitlines cfg))
    in
    let op_lat =
      List.fold_left
        (fun acc (op, n) ->
          acc +. (float_of_int (n * Bitserial.op_cycles op dtype) *. waves))
        0.0 ops
    in
    let jit =
      if jit_known then 0.0
      else
        float_of_int cfg.Machine_config.jit_base_cycles
        +. float_of_int (node_count * cfg.Machine_config.jit_cycles_per_command)
    in
    let imc = op_lat +. jit in
    (* Tie-break: at [core = imc] exactly, offloading buys nothing and
       still occupies compute arrays and a LOT entry, so ties stay
       near-memory — Eq. 2's inequality is strict. *)
    let eq2_target = if core > imc then In_memory else Near_memory in
    match override with
    | Force_imc ->
      traced
        {
          target = In_memory;
          core_cycles = core;
          imc_cycles = imc;
          reason =
            Printf.sprintf "tuned override: force-imc (Eq. 2 picks %s)"
              (target_name eq2_target);
        }
    | Force_core ->
      traced
        {
          target = Near_memory;
          core_cycles = core;
          imc_cycles = imc;
          reason =
            Printf.sprintf "tuned override: force-core (Eq. 2 picks %s)"
              (target_name eq2_target);
        }
    | Auto ->
      if core > imc then
        traced
          {
            target = In_memory;
            core_cycles = core;
            imc_cycles = imc;
            reason = "core latency exceeds in-memory latency (Eq. 2)";
          }
      else if core = imc then
        traced
          {
            target = Near_memory;
            core_cycles = core;
            imc_cycles = imc;
            reason = "tie: core latency equals in-memory latency (ties stay near-memory)";
          }
      else
        traced
          {
            target = Near_memory;
            core_cycles = core;
            imc_cycles = imc;
            reason = "insufficient parallelism to amortize bit-serial latency";
          }
  end
