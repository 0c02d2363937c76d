(** Structured tracing for the simulator ([infs_trace]).

    The event type is the simulator's one instrumentation vocabulary:
    components emit {e typed events} (NoC packet send/deliver, SRAM bank
    command issue/retire, DRAM bursts, TTU transposition, JIT lowering
    spans, memo hits/misses, Eq. 2 offload decisions, sync barriers,
    per-category cycle charges) through an [Obs.t] handle, which writes
    each one to a trace context [t] and folds it into the metrics
    registry. A context also keeps a flat table of counters derived from
    the event stream (behind the JSONL [summary] line and the Chrome
    counter tracks); its per-category totals reconcile exactly — same
    floats, same accumulation order — with the engine's {e Report}/{e
    Breakdown}.

    Traces are fully deterministic given the workload, paradigm and machine
    configuration: the simulator is a deterministic cost model and events
    carry simulated quantities (cycles, bytes), never wall-clock time. Two
    runs of the same configuration produce byte-identical JSONL — which is
    what makes traces testable golden artifacts.

    Sinks:
    - {!null} — the default; [emit] is a no-op behind a single branch, so
      instrumented code pays near-zero overhead when tracing is off. Call
      sites guard event {e construction} with [Obs.on].
    - JSON-Lines ({!to_buffer} / {!to_channel} with {!Jsonl}) — one JSON
      object per event, fixed field order, canonical float formatting
      (shortest representation that round-trips exactly); {!close} appends
      a [summary] line with every counter, sorted by name.
    - Chrome [trace_event] ({!Chrome}) — a [{"traceEvents": [...]}] JSON
      document loadable in [chrome://tracing] / Perfetto. Durations are
      simulated cycles rendered on a sequential per-family timeline (the
      viewer's microsecond unit reads as cycles). *)

type noc_dir = Send | Deliver
type cmd_phase = Issue | Retire
type span_dir = Enter | Exit

type event =
  | Noc_packet of {
      dir : noc_dir;
      category : string;  (** control | data | offload | inter-tile *)
      bytes : float;
      hops : float;
      packets : float;
    }  (** a NoC transfer; [Deliver] marks barrier-deferred completion *)
  | Local_move of { channel : string; bytes : float }
      (** intra-tile / H-tree movement that never enters the NoC *)
  | Sram_cmd of {
      phase : cmd_phase;
      kind : string;
      label : string;
      tiles : int;
      lanes : int;
      cycles : float;  (** charged cycles; 0 on [Issue] *)
    }  (** one bit-serial command at the SRAM banks *)
  | Dram_burst of { bytes : float; cycles : float }
  | Ttu_transpose of { bytes : float; cycles : float }
      (** tensor-transpose-unit layout conversion *)
  | Jit_span of {
      dir : span_dir;
      region : string;
      commands : int;
      cycles : float;  (** lowering cost; 0 on [Enter] *)
    }
  | Memo of { key : string; hit : bool }  (** JIT memo-table lookup *)
  | Offload_decision of {
      kernel : string;
      target : string;  (** in-memory | near-memory *)
      core_cycles : float;
      imc_cycles : float;
      reason : string;
    }  (** the Eq. 2 runtime verdict *)
  | Sync_barrier of { cycles : float }
  | Region_exec of { kernel : string; where : string; cycles : float }
      (** one kernel invocation completed on [where] *)
  | Fault of { site : string; action : string; detail : string; cycles : float }
      (** an injected hardware fault ([action = "inject"]) or the runtime's
          mitigation step ([action = "retry" | "fallback"]); [cycles] is the
          simulated time lost to this event (stall penalty, wasted attempt) *)
  | Counter of { name : string; value : float }
      (** a named counter increment: a cycle charge ([cycles.core] — the
          reconciliation spine), a compile-cache lookup, a serve/front
          loop counter *)
  | Request_span of { request : string; stage : string; us : float }
      (** one lifecycle stage of a served request
          ([stage = "queue_wait" | "run" | "write_back"]), attributed to
          the request's echoed id. Unlike every other event, [us] is {e
          host} microseconds — serving latency is a wall-clock quantity —
          so serve traces are not golden-testable byte-for-byte; their
          event {e counts} still are. The trace's own counter table
          derives [serve.spans.<stage>] and [serve.span_us.<stage>]; the
          metrics registry does not fold these events. *)

type format = Jsonl | Chrome

type t

val null : t
(** The shared disabled context. [enabled null = false]; emitting on it is
    a no-op and accumulates nothing. *)

val to_buffer : format -> Buffer.t -> t
val to_channel : format -> out_channel -> t

val enabled : t -> bool

val emit : t -> event -> unit
(** Record one event: updates the derived counters, then writes the event
    to the sink. No-op on {!null}. *)

val counter : t -> string -> float
(** Current value of one counter (0 if never written). *)

val counters : t -> (string * float) list
(** All counters, sorted by name. *)

val events_seen : t -> int
(** Events emitted so far. *)

val close : t -> unit
(** Finalize the sink: JSONL appends the [summary] counters line, Chrome
    writes the closing bracket. Flushes, but does not close the channel.
    Idempotent. *)

(** {1 Serialization} (exposed for tests) *)

val event_to_json : seq:int -> event -> string
(** The exact JSONL line (without newline) for [event] at sequence [seq]. *)

val json_float : float -> string
(** Canonical float formatting: shortest of ["%.12g"]/["%.17g"] that
    round-trips exactly; integral values print without a fraction. *)
