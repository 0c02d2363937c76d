(** Domain-safe content-addressed memo table.

    A [('k, 'v) t] maps keys (content hashes, the rendered inputs of a
    pure derivation, or packed ints) to computed values across a sharded
    set of mutex-guarded hash tables, with hit/miss/eviction counters. It
    backs the engine's compile cache (compiled programs shared by batch
    jobs on separate domains), each compiled program's plan store, the
    tuner's memo and the bench harness's report cache.

    [find_or_compute] computes {e outside} the shard lock, once per key:
    a caller that misses a key another caller is computing waits for that
    value instead of computing it again. Values must be safe to share
    (treated as immutable after construction).

    A table created with a [capacity] never holds more entries than that:
    a store that finds it full drops every entry (one eviction, counted)
    and then stores. *)

type ('k, 'v) t

val create :
  ?shards:int ->
  ?capacity:int ->
  ?hash:('k -> int) ->
  ?equal:('k -> 'k -> bool) ->
  unit ->
  ('k, 'v) t
(** [shards] defaults to 16 and is clamped to at least 1; [capacity]
    defaults to unbounded and is clamped to at least 1. [hash] (default
    [Hashtbl.hash]) and [equal] (default structural equality) must agree
    and must not raise; a lookup calls [hash] once. *)

val find_or_compute : ('k, 'v) t -> key:'k -> (unit -> 'v) -> 'v * bool
(** [find_or_compute c ~key f] returns [(v, hit)] where [hit] reports
    whether [key] was already present or being computed — a caller that
    waited for another's compute counts as a hit. Exceptions from [f]
    propagate and cache nothing; callers waiting on that compute wake and
    one of them computes. A hit hashes the key once, takes the shard lock
    once and allocates nothing. [f] must not look [key] up in [c] itself:
    it would wait for its own result. *)

val get : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [find_or_compute] without the hit flag, so that a hit allocates no
    pair either. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** Pure lookup; counts as a hit or a miss. *)

val insert : ('k, 'v) t -> key:'k -> 'v -> unit
(** Seed an entry without touching the hit/miss counters (loading a
    persisted cache). An existing entry for [key] is kept — first store
    wins, matching [find_or_compute]'s race rule. *)

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Fold over a snapshot of every entry in ascending key order
    ([compare]) — deterministic regardless of shard layout or insertion
    order, so callers can persist cache contents with stable bytes. The
    snapshot is taken shard-by-shard under the shard locks; entries added
    concurrently may or may not be observed. *)

val length : ('k, 'v) t -> int
val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** How many times a full table was dropped. *)

val reset : ('k, 'v) t -> unit
(** Drop every entry and zero the counters (tests). *)
