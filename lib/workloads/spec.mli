(** The request schema: one JSON job spec per line, the format
    [infs_run batch] reads and [infs_run serve] answers, e.g.
    [{"workload":"mm/out","paradigm":"inf-s","functional":true,
    "tile":[4,64],"eq2":{"*":"imc"},"timeout_s":5,"faults":"seed=1"}].
    Decoding, execution and the catalog x paradigm matrix live here so
    every caller — batch, serve, the [--client --check] verifier, the
    tests — runs a spec through one path. *)

type t = {
  workload : string;  (** a {!Catalog.names} entry; resolved by {!exec} *)
  paradigm : string;  (** an {!Infinity_stream.Engine.paradigm_of_string} name; default ["inf-s"] *)
  functional : bool;  (** default [false] *)
  optimize : bool;  (** default [true] *)
  warm : bool;  (** default [false] *)
  pre_transposed : bool;  (** default [false] *)
  charge_jit : bool;  (** default [true] *)
  tile : int array option;
      (** layout tile override: every component >= 1 and a volume of
          {!Machine_config.default}'s [sram_bitlines]. The rank is not
          checked: an override applies only to regions of its own rank. *)
  policy : Decision.policy;
      (** field ["eq2"]: one override for every kernel, or an object of
          per-kernel overrides with ["*"] as the default *)
  timeout_s : float option;  (** finite, positive wall-clock deadline *)
  faults : Fault.spec option;  (** [None]: the caller-wide fault spec *)
}

val default : string -> t
(** The spec of a bare [{"workload": w}]. *)

val of_json : Json.t -> (t, string) result
(** Decode a spec; unknown fields are ignored. Errors name the field:
    ["spec needs a \"workload\" string field"],
    ["field paradigm must be a string"],
    ["field functional must be a boolean"],
    ["field tile must be an array of integers"], ["field tile: ..."],
    ["field timeout_s must be a finite positive number"],
    ["field eq2: ..."], ["field eq2 must be a string or an object"],
    ["field faults must be a spec string"], ["field faults: ..."]. *)

val functional_tolerance : float
(** Largest functional error (vs. the golden model) a run may show: 1e-3. *)

val exec :
  Catalog.scale ->
  ?with_metrics:bool ->
  ?with_prof:bool ->
  faults:Fault.spec ->
  t ->
  (Infinity_stream.Report.t * Json.t option * Prof.t, string) result
(** Run a spec on a fresh catalog workload with the shared compile
    cache. [faults] applies unless the spec carries its own. With
    [with_metrics] (default off) the run's metrics snapshot comes back
    as JSON, minus the scheduling-dependent compile-cache series; with
    [with_prof] its private span profile. Raises {!Pool.Degradation}
    when an armed fault model leaves the functional result beyond
    {!functional_tolerance}. *)

val handler : Catalog.scale -> faults:Fault.spec -> Json.t -> (Json.t, string) result
(** Decode and run one request; [Ok] carries
    {!Infinity_stream.Report.to_json} of the report — the payload a
    served request answers with. *)

val matrix : Catalog.scale -> (string * t) list
(** Every {!Catalog.names} workload under each of [base1], [base],
    [near-l3], [in-l3], [inf-s] and [inf-s-nojit], labeled ["w x p"]. *)
