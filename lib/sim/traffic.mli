(** NoC traffic accounting (paper Figs. 12–13).

    Traffic is tracked per category in bytes, byte-hops (bytes weighted by
    mesh distance — the quantity Fig. 12/13 plot) and packets. Categories
    follow the paper: coherence control, data movement, offload management
    (stream configs, flow control, in-memory synchronization), and the
    inter-tile shift traffic that crosses the NoC. Intra-tile and in-bank
    H-tree movement is recorded separately for Fig. 13. *)

type category =
  | Control  (** coherence / request control messages *)
  | Data  (** cache-line data between cores and L3 / memory *)
  | Offload  (** stream configs, flow control, sync for offloaded work *)
  | Inter_tile  (** in-memory shifts crossing the NoC *)

val category_name : category -> string
(** The names used in reports and trace events: ["control"], ["data"],
    ["offload"], ["inter-tile"]. *)

type t

val create : ?obs:Obs.t -> ?faults:Fault.injector -> Machine_config.t -> t
(** [create ?obs ?faults cfg]: every [add] / [add_local] additionally
    emits a typed event through [obs] (default {!Obs.null}, a no-op),
    which the handle folds into per-category NoC counters that mirror the
    buckets bit-exactly plus per-link load gauges. The handle rides along
    to the downstream models ([Imc], [Near], [Corem], [Dram] call sites),
    which emit their own events and wrap their entry points in profiler
    spans on it; {!bulk_cycles_in} records a ["noc.bulk"] span leaf. When
    [faults] is given, the injector rides along for downstream models and
    {!bulk_cycles_in} draws NoC-degradation faults. *)

val obs_of : t -> Obs.t
(** The instrumentation handle this accounting was created with. *)

val faults_of : t -> Fault.injector option
(** The fault injector this accounting was created with, if any. *)

val reset : t -> unit

val add : t -> category -> bytes:float -> hops:float -> unit
(** Record a transfer; packet count is derived from the link width. *)

val add_local : t -> [ `Intra_tile | `Htree ] -> bytes:float -> unit
(** In-SRAM / in-bank movement that never enters the NoC. *)

val bytes : t -> category -> float
val byte_hops : t -> category -> float
val packets : t -> category -> float
val local_bytes : t -> [ `Intra_tile | `Htree ] -> float

val total_bytes : t -> float
(** NoC categories only. *)

val total_byte_hops : t -> float

val utilization : t -> cycles:float -> float
(** Fraction of aggregate link capacity used over [cycles]. *)

val bulk_cycles : Machine_config.t -> bytes:float -> avg_hops:float -> float
(** Time for a bulk, well-spread transfer: the maximum of endpoint
    serialization and bisection-bandwidth limits, plus pipeline latency.
    Pure estimate — never draws faults; use for planning/decision code. *)

val bulk_cycles_in : t -> detail:string -> bytes:float -> avg_hops:float -> float
(** {!bulk_cycles} for a transfer that actually happens on this traffic
    context: when a fault injector is attached and [bytes > 0], draws one
    link-degradation fault — a degraded transfer costs [noc_jitter]x the
    nominal cycles, and the excess is emitted as a [fault] event tagged
    with [detail]. Identical to {!bulk_cycles} otherwise. *)

val merge_into : dst:t -> t -> unit

val pp : Format.formatter -> t -> unit
