(** tDFG rewrite rules (paper appendix, Eq. 3a–9) and the equality
    saturation driver.

    Each rule matches every (class, node) pair present when it starts, in
    class-id then node order, and proposes unions; a saturation round
    applies each rule in turn, merging its unions and rebuilding congruence
    before the next. Rules
    preserve both value and lattice domain (enforced by {!Egraph.union}). *)

type rule = { rname : string; apply : Egraph.t -> (Egraph.eid * Egraph.eid) list }

val all_rules : arrays:(string * Symaff.t list) list -> rule list
(** The full rule set. [arrays] gives each array's symbolic extents, used by
    the tensor-expansion rule (Eq. 5) to widen views to the whole array. *)

val saturate :
  ?max_iters:int ->
  ?node_limit:int ->
  arrays:(string * Symaff.t list) list ->
  Egraph.t ->
  int
(** Run saturation rounds until a fixpoint, the iteration cap (default 8) or
    the node limit (default 20_000). Returns the number of rounds run. The
    limit is checked before each rule, so the rule that crosses it runs to
    the end: a saturated graph can hold more nodes than [node_limit]. *)
