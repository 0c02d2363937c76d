(** Mini-C frontend: the "plain C" programs the paper compiles from.

    A program is a sequence of host statements: sequential host loops,
    scalar computations, and {e kernels} — perfect affine loop nests whose
    statements read/write arrays with affine (or one-level indirect)
    indices. Kernels are the offloadable regions (the paper's
    [inf_cfg]/[inf_end] regions, Fig. 7); everything else runs on the host
    core. All Table 3 workloads and PointNet++ stages are expressed in this
    AST (see [Infs_workloads]). *)

type index =
  | Aff of Symaff.t  (** affine in induction variables and parameters *)
  | Indirect of { array : string; indices : Symaff.t list }
      (** one-level indirect access [A\[B\[i\]\]] (paper §3.3); only legal
          inside kernels that stay partly near-memory *)

type expr =
  | Load of { array : string; indices : index list }
  | Float_const of float
  | Scalar of string  (** runtime float scalar (e.g. [akk] in Fig. 7) *)
  | Binop of Op.t * expr * expr
  | Unop of Op.t * expr

type loop = { ivar : string; lo : Symaff.t; hi : Symaff.t }

type kernel_stmt = {
  target : string;
  target_indices : index list;
  rhs : expr;
  accum : Op.t option;  (** [Some op] means [target op= rhs] (reduction) *)
}

type kernel = {
  kname : string;
  loops : loop list;  (** outermost first; iteration domain of the region *)
  body : kernel_stmt list;
}

type host_stmt =
  | Host_loop of loop * host_stmt list
  | Let_scalar of string * expr  (** host-evaluated scalar definition *)
  | Kernel of kernel

type array_decl = { aname : string; dtype : Dtype.t; dims : Symaff.t list }

type program = {
  name : string;
  params : string list;  (** runtime integer size parameters *)
  arrays : array_decl list;
  body : host_stmt list;
}

(** {1 Construction helpers} *)

val i : string -> Symaff.t
(** Alias of {!Symaff.var}. *)

val c : int -> Symaff.t
val ( +! ) : Symaff.t -> Symaff.t -> Symaff.t
val ( -! ) : Symaff.t -> Symaff.t -> Symaff.t
val ( +% ) : Symaff.t -> int -> Symaff.t
(** [aff +% k] adds a constant. *)

val load : string -> Symaff.t list -> expr
val load_ix : string -> index list -> expr
val fconst : float -> expr
val scalar : string -> expr
val ( + ) : expr -> expr -> expr
val ( - ) : expr -> expr -> expr
val ( * ) : expr -> expr -> expr
val ( / ) : expr -> expr -> expr
val min_ : expr -> expr -> expr
val max_ : expr -> expr -> expr
val relu : expr -> expr
val sqrt_ : expr -> expr

val loop : string -> Symaff.t -> Symaff.t -> loop
val store : string -> Symaff.t list -> expr -> kernel_stmt
val store_ix : string -> index list -> expr -> kernel_stmt
val accum : Op.t -> string -> Symaff.t list -> expr -> kernel_stmt
val accum_ix : Op.t -> string -> index list -> expr -> kernel_stmt
val kernel : string -> loop list -> kernel_stmt list -> kernel

val array : string -> Dtype.t -> Symaff.t list -> array_decl

val program :
  name:string ->
  params:string list ->
  arrays:array_decl list ->
  host_stmt list ->
  program

(** {1 Queries} *)

val kernels : program -> kernel list
(** All kernels, in syntactic order (host loops unrolled structurally, not
    dynamically). *)

val expr_loads : expr -> (string * index list) list
(** Every array access in an expression, leftmost first. *)

val expr_scalars : expr -> string list
val expr_ops : expr -> Op.t list
(** All operator applications in evaluation order (for op counting). *)

val kernel_flops_per_iter : kernel -> int
(** Arithmetic operations one iteration of the kernel body performs. *)

val kernel_has_indirect : kernel -> bool

val validate : program -> (unit, string) result
(** Check that every array/scalar/parameter reference is declared, index
    arities match array ranks, kernel loop variables are distinct, and no
    two different kernels share a name (a kernel may recur verbatim). *)

val pp_program : Format.formatter -> program -> unit
(** Readable C-like rendering (for docs and debugging). *)
