(** Runtime in-/near-memory offload decision (paper §4.3, Eq. 2).

    Offload to in-memory computing when the core's best-case latency at
    peak throughput exceeds the in-memory latency (bit-serial op latencies
    are element-count independent — the computation is fully parallel) plus
    the JIT lowering cost. The compiler ships aggregate hints (op counts per
    kind) so the decision never walks the tDFG at runtime. The heuristic is
    deliberately conservative: it assumes peak core performance. *)

type target = In_memory | Near_memory

type verdict = {
  target : target;
  core_cycles : float;  (** LHS of Eq. 2 *)
  imc_cycles : float;  (** RHS: op latencies + JIT term *)
  reason : string;
}

val target_name : target -> string
(** ["in-memory"] / ["near-memory"] — the names used in trace events. *)

type override = Auto | Force_imc | Force_core
(** Per-kernel Eq. 2 override. [Auto] applies the heuristic unchanged.
    [Force_imc] pins the kernel to the in-memory side, [Force_core] to the
    other side of the offload boundary — the core for In-L3, the
    near-memory stream engines for Inf-S (the same side an [Auto]
    [Near_memory] verdict lands on). Overrides only apply when a valid
    transposed layout exists ([fits]); an unmappable region always stays
    near-memory. *)

type policy =
  | Heuristic  (** Eq. 2 as-is for every kernel — the default. *)
  | Tuned of { default : override; per_kernel : (string * override) list }
      (** Tuned-table lookup: [per_kernel] maps kernel names to overrides,
          anything absent falls back to [default]. *)

val override_name : override -> string
(** ["auto"] / ["force-imc"] / ["force-core"]. *)

val override_of_string : string -> (override, string) result
(** Inverse of [override_name]; also accepts ["heuristic"], ["imc"] and
    ["core"] as aliases. *)

val resolve : policy -> kernel:string -> override
(** The override a policy assigns to [kernel]. *)

val fault_fallback :
  ?obs:Obs.t -> ?kernel:string -> site:string -> target:string -> unit -> unit
(** Emit an [Offload_decision] event through [obs] (default {!Obs.null})
    recording that the runtime re-lowered [kernel] to [target] because
    faults at [site] exhausted the retry budget — fault mitigation rides
    the same §4.3 machinery as ordinary offload verdicts, so it is visible
    in the same event stream and counted in the same [decision{target}]
    series. The faulted target's latency is recorded as infinite. *)

val decide :
  ?obs:Obs.t ->
  ?kernel:string ->
  ?override:override ->
  Machine_config.t ->
  ops:(Op.t * int) list ->
  node_count:int ->
  dtype:Dtype.t ->
  elems:float ->
  flops:float ->
  data_bytes:float ->
  fits:bool ->
  jit_known:bool ->
  verdict
(** [elems] is the data-parallel element count of the region, [flops] the
    total arithmetic work a core-based execution would perform,
    [data_bytes] the working set it would stream through the NoC (the core
    is bounded by whichever is slower at peak), [fits] whether a valid
    transposed layout exists, [jit_known] whether lowered commands are
    already memoized (drops the JIT term).

    Tie-break: Eq. 2's inequality is strict — when the core latency exactly
    equals the in-memory latency, offloading buys nothing yet still
    occupies compute arrays and a LOT entry, so ties resolve to
    [Near_memory] (with an explicit tie reason in the verdict).

    [override] (default [Auto]) pins the target regardless of the Eq. 2
    comparison; the verdict's [core_cycles]/[imc_cycles] still report the
    computed latencies and the reason records what Eq. 2 would have
    picked.

    Every verdict is emitted as an [Offload_decision] event through [obs]
    (default {!Obs.null}). *)
