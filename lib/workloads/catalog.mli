(** The benchmark suite registry (paper Table 3 + microbenchmarks +
    PointNet++), at paper scale and at reduced test scale. *)

type entry = {
  label : string;  (** Table 3 name, e.g. ["mm"] *)
  variants : (string * Infinity_stream.Workload.t) list;
      (** dataflow variants (["in"] / ["out"]) or a single [""] variant *)
}

val table3 : unit -> entry list
(** The 10 Table 3 workloads plus the transformer-block trio
    (attention / layernorm / mlp, see {!Transformer}) at paper scale.
    For multi-dataflow entries the harness picks the best variant per
    paradigm, like the paper. *)

val test_scale : unit -> entry list
(** The same suite at sizes small enough for functional checking. *)

val all_variants : entry list -> (string * Infinity_stream.Workload.t) list
(** Flattened [(label/variant, workload)] pairs. *)

type scale = [ `Paper | `Test ]

val by_name : scale -> (string * Infinity_stream.Workload.t) list
(** Every workload a request or the command line can name:
    {!all_variants} of {!table3} (or {!test_scale}) plus [vec_add],
    [array_sum], [pointnet/ssg] and [pointnet/msg]. Built fresh on each
    call, so callers never share a workload's lazy inputs. *)

val names : scale -> string list
(** The names of {!by_name}, sorted. *)

val find : scale -> string -> (Infinity_stream.Workload.t, string) result
(** A fresh workload by name, equal to its {!by_name} entry; only that
    workload is built. The error lists {!names}. *)
