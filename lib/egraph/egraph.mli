(** Equality graph for tDFG optimization (paper §3.2 "Optimizing tDFG" and
    the appendix).

    The e-graph compactly represents every discovered rewrite of a tDFG:
    equivalent nodes (same values {e and} same lattice domain) share an
    e-class. Rewrite rules grow the graph non-destructively; extraction then
    picks the cheapest representative (see {!Extract}).

    This is a from-scratch implementation of the hashcons + union-find +
    rebuild design of egg \[67\], specialized to tDFG operators. Every
    cache (the hashcons, node and class counts, each class's sorted node
    list) lives in its graph, so graphs on different domains share
    nothing. *)

type eid = int
(** E-class id (canonical after {!rebuild}). *)

type enode =
  | E_tensor of { array : string; view : Symrect.t; axes : int list }
  | E_const of Tdfg.const_value
  | E_cmp of Op.t * eid list
  | E_mv of { input : eid; dim : int; dist : int }
  | E_bc of { input : eid; dim : int; lo : Symaff.t; hi : Symaff.t }
  | E_shrink of { input : eid; rect : Symrect.t }
  | E_reduce of { op : Op.t; input : eid; dim : int }
  | E_stream of { array : string; view : Symrect.t; coords : Tdfg.coord list }

type t

val create : ?min_var:int -> dims:int -> unit -> t
(** [dims] is the lattice dimensionality (for domain analysis). *)

val add : t -> enode -> eid
(** Hashcons an e-node (children canonicalized); returns its e-class. *)

val find : t -> eid -> eid
(** Canonical representative. *)

val union : t -> eid -> eid -> bool
(** Merge two e-classes; true if they were distinct. Their domain analyses
    must agree ([Failure] otherwise — a rewrite that changes the domain is a
    bug). *)

val rebuild : t -> unit
(** Restore congruence closure after a batch of unions. *)

val classes : t -> eid list
(** Canonical class ids. *)

val nodes_of : t -> eid -> enode list
(** E-nodes of one class, children canonicalized, sorted by [compare] and
    deduplicated. The list is kept in the class and rebuilt only after a
    union changed the class's nodes or moved one of their children. *)

val domain_of : t -> eid -> Tdfg.dom
(** Domain analysis value carried by the class. *)

val class_count : t -> int
(** Canonical classes. *)

val node_count : t -> int
(** E-nodes over the canonical classes; a class's duplicates count until
    {!rebuild} merges them. *)

val children : enode -> eid list

val map_children : (eid -> eid) -> enode -> enode

(** {1 Conversion from tDFG} *)

val of_tdfg : ?min_var:int -> Tdfg.t -> t * (Tdfg.id * eid) list
(** Load a tDFG; returns the graph and each tDFG node's e-class (outputs'
    sources are the roots to extract). *)
