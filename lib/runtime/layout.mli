(** Transposed data layout selection (paper §4.1).

    The runtime tiles the region's lattice across SRAM arrays. A tile is the
    set of lattice cells mapped to one array's bitlines. Constraints:

    + the tile volume equals the array's bitline count;
    + the contiguous (innermost) dimension's per-bank element count aligns
      with the cache line, so a transposed line maps to exactly one L3 bank;
    + the tiles a region instance touches fit in the compute arrays
      (checked per invocation by the engine; otherwise in-memory computing
      is disabled — paper §6 limitation 2).

    Among valid tiles the heuristic prioritizes reduction (large tile along
    the reduced dimension), then shifts (close-to-square tiles), then
    broadcasts (small innermost tile to spread source rows across banks);
    the paper reports this lands within 2% of an oracle. *)

type t = {
  tile : int array;  (** elements per tile, per lattice dimension *)
  grid : int array;  (** tiles per lattice dimension *)
  shape : int array;  (** the lattice shape being tiled *)
  tiles_total : int;
}

val candidates :
  Machine_config.t -> shape:int array -> elems_per_line:int -> t list
(** All power-of-two tilings meeting the constraints, in deterministic
    order. Empty when the region cannot be transposed. *)

val choose :
  Machine_config.t ->
  hints:Fat_binary.hints ->
  shape:int array ->
  elems_per_line:int ->
  (t, string) result
(** Heuristic pick among {!candidates}. *)

val score : Machine_config.t -> hints:Fat_binary.hints -> t -> float
(** The heuristic's scoring function (exposed for the oracle sweep in the
    Fig. 16/17 benches; higher is better). *)

val check_tile : Machine_config.t -> int array -> (unit, string) result
(** An explicit tile must have every component >= 1 and a volume of exactly
    [sram_bitlines]. *)

val of_tile :
  Machine_config.t -> shape:int array -> tile:int array -> (t, string) result
(** Build a layout from an explicit tile size (bench sweeps), checking the
    constraints. *)

val imc_view : t -> Imc.layout_view

val to_string : t -> string
