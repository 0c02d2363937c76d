(** Offline replay of a JSONL trace (the [infs_trace] format) into a
    {!Metrics} registry, plus a deterministic bottleneck report.

    Replay parses each line back into a {!Trace.event} ({!event_of_json})
    and folds it with {!Metrics.apply}, the function the live handle
    ({!Obs.emit}) calls, in event order — so the registry is bit-identical
    to the one a live run with metrics enabled produced, minus the
    live-only series that have no event (near-memory stall causes, serve
    queue depth and latency, pool utilization).

    Additionally attributes per-category cycle charges to the enclosing
    program region: [ctr cycles.<cat>] events accumulate into a pending
    set that each [region] event folds into its kernel (the engine charges
    before it emits the region event); charges after the last region land
    in an "(outside regions)" row. *)

type t

val create :
  ?mesh_x:int ->
  ?mesh_y:int ->
  ?banks:int ->
  ?channels:int ->
  unit ->
  t
(** Geometry used for per-link / per-bank / per-channel attribution;
    defaults (8, 8, 64, 16) match the paper's machine. *)

val metrics : t -> Metrics.t
(** The live registry being filled; enabled, owned by this replay. *)

val events : t -> int
(** Events applied so far (trace summary lines excluded). *)

val event_of_json : Json.t -> (Trace.event option, string) result
(** The inverse of {!Trace.event_to_json}: [Ok (Some ev)] for an event
    line, [Ok None] for the [summary] line and for unknown [ev] kinds
    (forward compatibility). Strict: a missing field the serializer
    writes, a field of the wrong JSON type (quoted ["inf"]/["-inf"]/
    ["nan"] are numbers) or an unknown [dir]/[phase] is an [Error] naming
    the event and the field. *)

val feed_line : t -> string -> (unit, string) result
(** Replay one JSONL line. Blank lines, the trailing summary line and
    unknown event kinds are ignored; malformed JSON and any
    {!event_of_json} error are errors. *)

val feed_channel : t -> in_channel -> (int, string) result
(** Replay a whole channel; [Ok n] is the number of events applied, errors
    are prefixed with the 1-based line number. *)

val report : ?top:int -> t -> string
(** Deterministic plain-text bottleneck attribution: cycle breakdown by
    category, top-[top] hottest NoC links with an ASCII mesh heatmap of
    router egress load, busiest SRAM banks, DRAM/JIT summaries and the
    per-region critical-category table. Byte-stable for a given trace
    (golden-tested).

    A serving-session trace (one carrying [Request_span] events)
    additionally gets a "serve requests" section attributing latency to
    queueing vs execution: per-stage totals over
    [queue_wait]/[run]/[write_back] and the top-[top] slowest requests by
    id with their queue/run split. Simulator-run traces have no such
    events, so their reports are unchanged. *)
