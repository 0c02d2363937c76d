(** The paradigm engine: compiles a workload and simulates it under one of
    the paper's five configurations (§7 "Parameters and Configurations").

    - [Base_1] / [Base]: in-core execution with AVX-512 SIMD, 1 or all
      threads.
    - [Near_l3]: near-stream computing — every kernel offloads its streams
      and computation to the L3 stream engines.
    - [In_l3]: in-memory computing via the JIT runtime, but without
      near-memory support: embedded streams and final reductions execute on
      the cores, and non-tensorizable kernels fall back to the cores.
    - [Inf_s]: the full fused design — Eq. 2 decides per region between
      in-memory and near-memory; embedded streams and final reductions run
      at the L3 stream engines.
    - [Inf_s_nojit]: [Inf_s] with precompiled commands (no JIT charge).

    In functional mode the engine additionally computes every kernel's
    values (through the tDFG evaluator for in-memory executions, through
    the interpreter otherwise) and compares the designated output arrays
    against a golden run of the program. *)

type paradigm = Base_1 | Base | Near_l3 | In_l3 | Inf_s | Inf_s_nojit

val paradigm_to_string : paradigm -> string
val all_paradigms : paradigm list

val paradigm_of_string : string -> (paradigm, string) result
(** The command-line names ([base1]/[base-1], [base], [near]/[near-l3],
    [in-l3]/[inl3], [inf-s]/[infs], [inf-s-nojit]/[nojit]) and the
    canonical {!paradigm_to_string} names; anything else is
    ["unknown paradigm <s>"]. *)

type options = {
  cfg : Machine_config.t;
  functional : bool;  (** compute & check values (use small sizes!) *)
  optimize : bool;  (** run the e-graph optimizer *)
  tile_override : int array option;  (** force a tile size (Fig. 16/17) *)
  charge_jit : bool;
      (** charge JIT lowering cycles (Fig. 2 assumes resident, precompiled
          data and disables this for In-L3) *)
  warm_data : bool;
      (** start with every array resident in the L3 in normal layout — the
          paper's "input data already tiled to fit in the L3" assumption
          (§6); in-memory paradigms still pay transposition *)
  pre_transposed : bool;
      (** with [warm_data], in-memory paradigms additionally skip the
          transposition — Fig. 2's "already transposed" assumption *)
  trace : Trace.t;
      (** structured-event trace sink (default {!Trace.null}, a no-op).
          [run] builds one {!Obs.t} handle from [trace], [metrics] and
          [prof] (with the mesh, bank and channel geometry of [cfg]) and
          threads it through the engine and every instrumented component;
          each event goes through the handle once, written here and
          folded into [metrics]. The per-category cycle counters
          ([cycles.dram], [cycles.core], …) reconcile exactly — identical
          floats, identical accumulation order — with [Report.breakdown];
          [noc.bytes.*] / [local.bytes.*] likewise match the traffic
          totals. Traces are deterministic given (workload, paradigm,
          options). *)
  metrics : Metrics.t;
      (** metric registry (default [Metrics.null], a no-op). An enabled
          registry receives the fold ({!Metrics.apply}) of every event
          the run emits — per-category and per-link NoC load, per-bank
          SRAM occupancy and command-latency histograms, DRAM
          burst/channel series, JIT lowering/memo series, decisions,
          faults and the [cycles{cat}] histograms whose sums reconcile
          exactly with [Report.breakdown] — so replaying the run's trace
          rebuilds it. The near-memory stall breakdown ([near.cycles],
          [near.bound]) has no event and is written directly (live-only).
          Registries are single-domain: batch jobs each create their
          own. *)
  prof : Prof.t;
      (** host-time span profiler (default [Prof.null], a no-op), carried
          in the run's handle. With an enabled registry the engine wraps
          its phases in spans — root ["engine"], then ["compile"] and
          ["run"], with per-region ["core"]/["near"]/["imc"] spans, the
          Eq. 2 ["decide"] span and the ["jit"] span nested under [run] —
          and the instrumented sim components ([Imc], [Near], [Corem],
          [Dram], [Traffic]) add their own leaves below. Span {b counts}
          are deterministic and reconcile with trace/metrics counters
          ([core]/[near]/[imc] counts equal the [Region_exec] per-target
          event counts, [jit] equals the report's JIT invocations,
          [decide] equals the [Offload_decision] event count); span {b
          times} are host wall-clock and vary run to run. Registries are
          single-domain: batch jobs each create their own and merge. *)
  share_compile : bool;
      (** look up / publish the compiled program — the fat binary and its
          plan store of worksets, resolved domains, layouts and JIT
          lowerings — in the process-wide content-addressed compile cache
          (keyed by {!compile_key}) instead of compiling
          privately; a private compile's plans are freed with its run.
          Used by the batch/bench paths, where many jobs share
          programs; single runs default to [false] so their
          behavior (and golden traces) is byte-identical to before. Each
          lookup emits a [compile_cache.hits] / [compile_cache.misses]
          counter event. *)
  faults : Fault.spec;
      (** seeded hardware-fault model (default {!Fault.none}: no injector
          is installed and the run is byte-identical to a faultless
          build). With a non-default spec the engine arms deterministic
          per-site fault streams — SRAM bit flips abort in-memory regions,
          NoC degradation stretches bulk transfers, DRAM channels stall,
          near-memory stream engines hang — and mitigates: bounded retries
          (wasted cycles charged and accounted), then paradigm fallback
          (in-memory regions re-lower to near-memory or core; near-memory
          falls back to core, which never faults, so every run
          terminates). Functional results remain correct under mitigation;
          the report gains a [faults] summary. Streams are scoped to
          (workload, paradigm), so identical specs give byte-identical
          reports at any [--jobs] count. *)
  decision_policy : Decision.policy;
      (** how per-region offload targets are chosen (default
          {!Decision.Heuristic}: Eq. 2 as-is, byte-identical to before
          this field existed). A [Decision.Tuned] table pins kernels to a
          side of the offload boundary: [Force_imc] sends a mappable
          region to the SRAM arrays, [Force_core] keeps it off them — on
          the cores for [In_l3], the near-memory stream engines for
          [Inf_s] (the decision layer names that side "near-memory" in
          either case). Overrides only affect mappable regions; scalar
          fallbacks, missing schedules and unmappable layouts take the
          usual fallback path regardless. [Base_1]/[Base]/[Near_l3] have
          no offload boundary and ignore the policy. *)
}

val default_options : options

val compile_key : options -> Workload.t -> string
(** The compile cache's key: the hex MD5 of the workload's program, [cfg]
    and [optimize], marshalled without sharing. It is exact — programs
    that differ in any constant, even past the sixth significant digit,
    get different keys — and canonical: equal programs, however and
    whenever built, get one key. [params] and every other option stay out
    of it, so the sizes of one program share a compile. *)

val compile_cache_stats : unit -> int * int * int
(** [(hits, misses, entries)] of the process-wide compile cache, counting
    every run with [share_compile = true] since start (or
    {!compile_cache_clear}). Domain-safe: batch jobs on separate domains
    share one cache. *)

val compile_cache_clear : unit -> unit

val plan_store_stats : unit -> int * int * int
(** [(hits, misses, evictions)] summed over the plan stores of the
    programs in the compile cache. A cached program carries one store
    (worksets, resolved domains, layouts and JIT lowerings, each table
    bounded by {!plan_store_capacity} and reset when full) shared by every
    run of it on any domain; a private compile's store dies with its run
    and is not counted. The counts depend on scheduling, so they belong on
    stderr, never in reports, traces or metrics. *)

val plan_store_capacity : int
(** Entries one plan store table holds before it is reset. *)

val run : ?options:options -> paradigm -> Workload.t -> (Report.t, string) result

type program
(** A compiled program: the fat binary plus its plan store. *)

val compile_program : options -> Workload.t -> (program, string) result
(** The private compile a [share_compile = false] run makes. *)

val program_fat_binary : program -> Fat_binary.t

val run_program :
  ?options:options -> program -> paradigm -> Workload.t -> (Report.t, string) result
(** {!run} on a program compiled from the workload's program text with the
    same [cfg] and [optimize]; [share_compile] is not consulted. Runs of
    one program on any domain share its plan store, which lives as long as
    the program. *)

val run_exn : ?options:options -> paradigm -> Workload.t -> Report.t
