(** JIT lowering of a scheduled tDFG into in-memory commands
    (paper §4.2, Algorithms 1–2).

    For each node, the resolved (concrete) domain is decomposed along tile
    boundaries (Algorithm 1, {!Hyperrect.decompose}); [mv] nodes lower into
    intra-/inter-tile shift commands with bitline masks (Algorithm 2),
    compute nodes into per-tile bit-serial ops, [bc] into multicast
    broadcasts and [reduce] into in-tile reduction rounds plus — when the
    tile does not cover the reduced extent — a near-memory final-reduce
    obligation. A [sync] barrier is inserted between any inter-tile data
    movement and its first consumer. Shift commands whose mask does not
    intersect the tensor are filtered out. *)

type stats = {
  commands : int;
  jit_cycles : float;  (** host-side lowering cost (0 when memoized) *)
  final_reduce_elems : float;
      (** cross-tile partials to be reduced by a near-memory stream *)
  stream_load_elems : float;  (** embedded load-stream elements *)
  stream_store_elems : float;  (** embedded store-stream elements *)
  spill_elems : float;
      (** elements moved by register-spill streams (included in the two
          stream counters as a store + reload pair) *)
  writeback_elems : float;
  compute_elems : float;  (** total element-ops executed in-memory *)
  memoized : bool;
}

val lower :
  ?doms:Hyperrect.t option array ->
  Machine_config.t ->
  Tdfg.t ->
  schedule:Schedule.t ->
  layout:Layout.t ->
  env:(string -> int) ->
  Command.t array * stats
(** Lower one region instance. [env] resolves parameters and enclosing
    host-loop variables. [doms], when given, supplies the already-resolved
    domain of every live node indexed by id (the engine computes them once
    per invocation for the memo-key signature); [env] is then unused. *)

(** {1 Memoization (paper §4.2 "Reducing JIT Overheads")} *)

type memo

val memo_create : unit -> memo

type lowering = Command.t array * stats

val lower_memo :
  ?obs:Obs.t ->
  ?doms:Hyperrect.t option array ->
  memo ->
  store:lowering Ccache.t ->
  key:string ->
  Machine_config.t ->
  Tdfg.t ->
  schedule:Schedule.t ->
  layout:Layout.t ->
  env:(string -> int) ->
  lowering
(** Like {!lower} but reuses the command array when the same [key] (region
    name + resolved parameters + layout) was lowered before in this run;
    memoized hits charge only a small lookup cost and set [memoized].
    Emits a [Memo] event per lookup and an [Enter]/[Exit] [Jit_span] pair
    around each actual lowering through [obs] (default {!Obs.null}),
    which folds them into the memo and lowering series. A lowering the
    run has not seen is taken from [store] — the compiled program's
    lowering table, shared across runs and domains, keyed by [key] — and
    lowered and published there on a miss. The run's charges and events
    are the same whatever [store] holds. *)

val memo_hits : memo -> int
val memo_misses : memo -> int
