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
    domain of every live node indexed by id (the engine's domain plan,
    which also yields the memo key's {!signature}); [env] is then
    unused. *)

(** {1 Memoization (paper §4.2 "Reducing JIT Overheads")} *)

type lowering = Command.t array * stats

type signature
(** The identity of one invocation's resolved live domains: the region's
    index and the per-node {!Hyperrect.buf_add} bytes, hashed once when
    it is built. *)

val signature : region:int -> live:Tdfg.id array -> Hyperrect.t option array -> signature
(** [signature ~region ~live doms] over the domains of the [live] nodes,
    [doms] indexed by node id. *)

type store = (signature * string, lowering) Ccache.t
(** A compiled program's lowering table, shared across runs and domains:
    the lowering of each (signature, rendered layout). *)

val store_create : ?capacity:int -> unit -> store

type memo

val memo_create : regions:int -> memo
(** A run's memo, for region indices [0] to [regions - 1]. *)

val lower_memo :
  ?obs:Obs.t ->
  ?doms:Hyperrect.t option array ->
  memo ->
  store:store ->
  kernel:string ->
  signature ->
  Machine_config.t ->
  Tdfg.t ->
  schedule:Schedule.t ->
  layout:Layout.t ->
  layout_str:string ->
  env:(string -> int) ->
  lowering
(** Like {!lower} but reuses the command array when the same signature
    was lowered under the same layout ([layout_str] is its rendering)
    before in this run; memoized hits charge only a small lookup cost and
    set [memoized]. The first lowering of a region in a run pays the
    region's entry cost, later ones do not. Emits a [Memo] event per
    lookup, keyed [kernel|signature bytes|layout_str], and an
    [Enter]/[Exit] [Jit_span] pair for [kernel] around each actual
    lowering through [obs] (default {!Obs.null}), which folds them into
    the memo and lowering series; the key is rendered only when [obs] is
    on. A lowering the run has not seen is taken from [store], and
    lowered and published there on a miss. The run's charges and events
    are the same whatever [store] holds. *)

val memo_hits : memo -> int
val memo_misses : memo -> int
