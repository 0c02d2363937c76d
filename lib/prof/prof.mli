(** Host-time instrumenting profiler: explicit span push/pop accumulating
    per-path call counts and self/total nanoseconds.

    Mirrors {!Trace.t}/{!Metrics.t}: {!null} is a permanently disabled
    registry, hot call sites guard on {!enabled} (one bool test), and a
    disabled registry reads no clock and allocates nothing — the bench
    asserts the disabled-guard overhead stays under 2% of a smoke run.

    A span is keyed by its full path: the names of the active span stack
    joined with [';'] (e.g. ["engine;imc;jit"]). Reports are sorted by
    path. Determinism contract: {b counts} mirror simulator events, so
    they are exact, reconcile with trace/metrics counters, and are
    invariant across [--jobs]; {b times} are host wall-clock and vary run
    to run — renderers accept [?normalize] to strip them for golden
    comparison.

    A registry belongs to one domain. Batch jobs each create their own and
    the coordinator folds them with {!merge_into}; {!record_path} is the
    one entry point safe to call under an external lock from systhreads
    (the serve front end) or after workers joined (pool shutdown). *)

type t

val null : t
(** Disabled registry: every operation is a no-op. *)

val create : unit -> t

val enabled : t -> bool

val calls : t -> int
(** Instrumentation calls applied ({!enter}, {!leave}, {!record} and
    {!record_path} each count once). Used by the bench to bound the
    disabled-guard overhead. *)

val now_ns : unit -> float
(** Host clock in nanoseconds (microsecond resolution). *)

(** {1 Spans} — all no-ops on {!null}. *)

val enter : t -> string -> unit
(** Push a span. Single-domain only (uses the registry's span stack). *)

val leave : t -> unit
(** Pop the current span and accumulate its elapsed time into the row for
    its path (self time excludes nested spans and {!record}s). An
    unbalanced [leave] is dropped. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f]: {!enter}/{!leave} around [f ()], exception-safe. *)

val record : t -> string -> ns:float -> unit
(** Point record of a completed leaf span under the current stack: one
    call, [ns] self and total time; the enclosing span's self time
    excludes it. *)

val record_path : t -> string -> ?count:int -> ns:float -> unit -> unit
(** Accumulate directly into an absolute path, bypassing the span stack —
    for aggregation sites that are not on the owning domain's call path
    (per-worker pool totals at shutdown, per-request serve stages under
    the server lock). *)

val merge_into : dst:t -> t -> unit
(** Fold [src]'s rows (and call count) into [dst]. Row insertion order is
    irrelevant: reports sort by path, and counts are sums. *)

(** {1 Reports} *)

type entry = { path : string; count : int; total_ns : float; self_ns : float }

val rows : t -> entry list
(** All rows sorted by path; [] on {!null}. *)

val count_leaf : t -> string -> int
(** Summed call count of every path whose last segment equals [name] —
    the reconciliation hook (e.g. [count_leaf t "jit"] equals the
    report's JIT invocations wherever the span was reached from). *)

val report : ?normalize:bool -> t -> string
(** Text table sorted by path. [normalize] replaces the time columns with
    ["-"] so the rendering is byte-deterministic (golden tests). *)

val to_json : ?normalize:bool -> t -> Json.t
(** [{"schema":"infs-prof-1","spans":[{path,calls,total_ns,self_ns}]}],
    sorted by path. [normalize] zeroes the time fields. *)

val to_folded : t -> string
(** Folded-stack lines ["a;b;c <self_ns>"] for flamegraph tools. *)

val write_file : t -> string -> unit
(** Write a report to [path]; format chosen by extension ([.json] → JSON,
    [.folded] → folded stacks, anything else → text), looking through a
    trailing [.shard<i>] / [.front] suffix ({!Side_file.has_ext}). No-op
    on {!null}. *)
