(** Cost-based extraction of the optimal tDFG from a saturated e-graph.

    The cost model is architecture-informed (paper appendix: "estimated
    latency of move vs. compute node, the amount of moved/broadcast data,
    as well as the number of computations"): per-node cost is the bit-serial
    latency of the operation scaled by the node's domain volume, estimated
    by substituting a nominal value for every symbolic parameter.

    Extraction is DAG-aware: shared subgraphs are counted once (that is
    exactly what makes the compute-reuse rewrites profitable). A greedy
    tree-cost extraction seeds a local search that switches individual
    class representatives while the total DAG cost improves. *)

val node_cost : dtype:Dtype.t -> nominal:int -> Egraph.t -> Egraph.enode -> float
(** Cost of one e-node excluding its children. *)

val extract :
  ?nominal:int ->
  dtype:Dtype.t ->
  Egraph.t ->
  roots:Egraph.eid list ->
  (Egraph.eid -> Egraph.enode) * float
(** Choose a representative per live class; returns the choice function and
    the total DAG cost of the extraction reachable from [roots]. *)

type opt_stats = {
  rounds : int;  (** saturation rounds run *)
  classes : int;  (** e-classes of the saturated graph *)
  nodes : int;  (** e-nodes of the saturated graph *)
  cost_before : float;  (** DAG cost of the input tDFG *)
  cost_after : float;  (** DAG cost of the extracted tDFG *)
}

val no_opt : opt_stats
(** All zero: the stats of a tDFG that was not optimized. *)

val optimize :
  ?nominal:int ->
  ?max_iters:int ->
  ?node_limit:int ->
  arrays:(string * Symaff.t list) list ->
  Tdfg.t ->
  Tdfg.t * opt_stats
(** Full driver: load the tDFG into an e-graph, saturate with
    {!Rules.all_rules}, extract, and rebuild an equivalent tDFG (same
    outputs). *)

val dag_cost : ?nominal:int -> Tdfg.t -> float
(** Cost of a concrete tDFG under the same model (for tests/benches). *)
