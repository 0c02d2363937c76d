(** Memoized {!Command.array_cycles} for the sim hot loop.

    The bit-serial occupancy of a command depends only on (kind tag,
    opcode, dtype, width parameter) — the memo packs that tuple into one
    int key and caches the cost in a per-domain table, so the inner
    command loop stops re-deriving reduce-round costs per command. The
    returned value is exactly [Command.array_cycles c]; the reference
    implementation stays the oracle in differential tests.

    Process-global hit/miss counters (atomic, summed over all domains)
    feed the `sim.costmemo.{hit,miss}` line and the >90% hit-rate
    assertion in `bench --smoke`. They are intentionally not trace events
    or metric series: both of those surfaces are pinned byte-for-byte by
    golden tests that predate the memo. *)

val hits : unit -> int
val misses : unit -> int

val hit_rate : unit -> float
(** hits / (hits + misses), 0.0 before any lookup. *)

val reset : unit -> unit
(** Zero both counters (the memo tables themselves stay warm). *)

(** {1 Batched lookups}

    The command loop fetches the per-domain table once per region and
    accumulates hit/miss counts locally; {!flush} folds them into the
    global atomics. *)

type local

val local : unit -> local
(** Bind the current domain's table. Do not share across domains. *)

val array_cycles_local : local -> Command.t -> int
(** Memoized [Command.array_cycles]; [Sync] returns 0 without touching
    the table or the counters. *)

val flush : local -> unit
