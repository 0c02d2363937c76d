(** The infinity stream fat binary (paper Fig. 3, §3.4).

    The static compiler packages, for every kernel region: the initial and
    optimized tDFGs, the sDFG-level stream summary, wordline schedules for
    the common SRAM geometries (256x256 and 512x512 — "a small handful over
    many generations of hardware"), and layout hints for the runtime's
    tiling heuristics. Everything stays symbolic in the input sizes. *)

type hints = {
  shift_dims : int list;  (** lattice dims some tensor is shifted along *)
  bc_dims : int list;  (** lattice dims some tensor is broadcast along *)
  reduce_dims : int list;
  primary_array : string option;
      (** the output (or reduced) array whose tile size others follow *)
  aligned_arrays : string list;
      (** arrays that must share a tile size / be bitline-aligned *)
}

type region = {
  kernel : Ast.kernel;
  index : int;
      (** the position of the kernel's name among the program's distinct
          kernel names, in syntactic order: [0] to [region_count - 1]. A
          verbatim repeat of a kernel shares its first occurrence's
          index. The runtime keys per-run state and plans on it. *)
  sdfg : Sdfg.t;
      (** the near-memory representation — both DFGs ship in the binary so
          the runtime can choose the offload target (§3.4) *)
  initial : Tdfg.t;
  optimized : Tdfg.t;
  info : Kernel_info.t;
  schedules : (int * Schedule.t) list;  (** per supported wordline count *)
  hints : hints;
  opt_stats : Extract.opt_stats;
  fallback : string option;
      (** populated when the kernel cannot be expressed as a tDFG; the
          region then only supports in-core / near-memory execution *)
  live : Tdfg.id array;
      (** live node ids of [optimized], ascending; empty for a fallback
          region, which never runs in memory *)
  ws_vars : string array;
      (** the integer variables the runtime's workset resolution reads:
          host-loop bounds, symbolic distinct extents, and the dimensions
          of arrays whose footprint falls back to the whole array *)
  dom_vars : string array;
      (** the integer variables the domains of the [live] finite nodes
          read — all that domain resolution and the layout's lattice shape
          depend on besides the output arrays' dims *)
  ops : (Op.t * int) list;
      (** Eq. 2's operand multiset: each op of the live [Cmp] and [Reduce]
          nodes of [optimized] with its count, as [Tdfg.op_multiset] *)
}

type t = {
  prog : Ast.program;
  regions : region list;  (** in syntactic order, one per kernel *)
  extents : (string * Symaff.t list) list;
  by_name : (string, region) Hashtbl.t;
      (** the first region of each kernel name (a name recurs only for a
          verbatim repeat of its kernel, see [Ast.validate]); filled by
          [compile], read-only after *)
}

val sram_geometries : int list
(** Wordline counts the fat binary is scheduled for (256 and 512). *)

val compile : ?optimize:bool -> Ast.program -> (t, string) result
(** Run the full static pipeline: validate, extract each kernel, optimize
    via equality saturation (unless [optimize:false]), schedule, derive
    hints. Kernels that cannot be tensorized become fallback regions rather
    than failing the build. *)

val region_of : t -> string -> region option
(** Find a region by kernel name, in O(1). *)

val region_count : t -> int
(** The number of distinct kernel names, one more than the largest
    [index]. *)

val derive_hints : Tdfg.t -> hints
