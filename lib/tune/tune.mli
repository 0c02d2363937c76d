(** Autotuning decision search ([infs_tune], DESIGN.md §14).

    The JIT runtime commits to a layout (§4.1 heuristic) and an offload
    target (§4.3, Eq. 2) with one-shot closed-form picks. This subsystem
    searches that decision space instead: it enumerates candidate
    configurations — paradigm × tile override (from {!Layout.candidates})
    × Eq. 2 override — scores each with a fast simulation run fanned out
    on the domain pool, greedily refines per-kernel overrides from the
    uniform winner, and memoizes the winning decision vector in a
    content-addressed cache keyed by
    ({!Infinity_stream.Engine.compile_key} ⊕ params ⊕ option knobs ⊕
    budget).

    Candidate 0 is always the Inf-S / Eq. 2-heuristic baseline, so the
    winner is never worse than the heuristic. Scoring runs are
    deterministic and results are assembled in submission order, so a
    tuning run is byte-identical at any [jobs] count. *)

type config = {
  paradigm : Infinity_stream.Engine.paradigm;
  tile : int array option;
      (** forwarded to [Engine.options.tile_override]; [None] keeps the
          §4.1 layout heuristic *)
  eq2 : Decision.override;  (** workload-wide Eq. 2 default *)
  per_kernel : (string * Decision.override) list;
      (** per-kernel flips found by the refinement pass, sorted by kernel
          name *)
}

type scored = { config : config; cycles : float }

type result = {
  workload : string;
  key : string;  (** content-addressed memo key *)
  budget : int;  (** max scoring runs (clamped to >= 1) *)
  candidates : int;  (** enumerated uniform candidates, pre-truncation *)
  explored : scored list;
      (** every scored candidate in exploration order; [[]] when the
          result came from the memo cache (0 new candidates explored) *)
  winner : scored;
  baseline : scored;  (** Inf-S under the unmodified Eq. 2 heuristic *)
  gap : float;  (** baseline cycles / winner cycles; 1.0 = no gain *)
  from_cache : bool;
}

val default_budget : int

val tune :
  ?options:Infinity_stream.Engine.options ->
  ?budget:int ->
  ?jobs:int ->
  (unit -> Infinity_stream.Workload.t) ->
  (result, string) Stdlib.result
(** [tune resolve] searches the decision space for the workload [resolve]
    returns. [options] carries the machine configuration and cost-model
    knobs (functional checking, tracing, metrics and fault injection are
    forced off for scoring runs). The search compiles the program once
    ({!Infinity_stream.Engine.compile_program}) and scores every candidate
    on that compile; the process-wide compile cache is not consulted. The
    workload is re-resolved per scoring job. Results are memoized
    process-wide: a repeat call with the same key returns the cached
    result with [from_cache = true] and [explored = []]. *)

val apply :
  result ->
  Infinity_stream.Engine.options ->
  Infinity_stream.Engine.paradigm * Infinity_stream.Engine.options
(** The winning paradigm plus [options] with the winner's tile override
    and decision policy installed — how [run]/[batch]/[serve]/[bench]
    consume a tuned decision. *)

val result_to_json : result -> Json.t
(** Deterministic (schema [infs-tune-1]): fixed field order, canonical
    floats, simulated quantities only — byte-identical across [jobs]. *)

val result_of_json : Json.t -> (result, string) Stdlib.result
val config_to_json : config -> Json.t
val config_of_json : Json.t -> (config, string) Stdlib.result

val cache_stats : unit -> int * int * int
(** [(hits, misses, entries)] of the process-wide tuning memo. *)

val cache_clear : unit -> unit

val save_cache : string -> (unit, string) Stdlib.result
(** Persist every memoized tuning result as one JSON document (schema
    [infs-tune-cache-1]) with entries in ascending key order —
    deterministic bytes for artifact diffing. [Error] carries the system's
    message when the file cannot be written. *)

val load_cache : string -> (int, string) Stdlib.result
(** Seed the process-wide memo from a file written by {!save_cache};
    returns the number of entries loaded. Existing entries win. *)
