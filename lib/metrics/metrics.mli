(** Labeled metrics: counters, gauges and log2-bucketed histograms.

    Zero third-party dependencies (stdlib + [infs_util] only). Mirrors the
    design of {!Trace.t}: {!null} is a permanently disabled registry, every
    hot call site guards on {!enabled} (one bool test), and a disabled
    registry performs no allocation or hashing — the bench asserts the
    overhead of the disabled guards stays under 2% of a smoke run.

    Series are keyed by (metric name, sorted label set). Updates are not
    thread-safe: a registry belongs to one domain (batch jobs each create
    their own, like trace sinks).

    Determinism: {!snapshot} is sorted by (name, labels); float
    accumulations happen in call order, so a metric that mirrors a
    simulator accumulator (e.g. [noc.byte_hops{cat}] vs. [Traffic]) is
    bit-identical to it, and replaying a JSONL trace through {!Sim}
    reproduces the live registry exactly. *)

type t

val null : t
(** Disabled registry: every operation is a no-op. *)

val create : unit -> t

val enabled : t -> bool

val calls : t -> int
(** Number of instrumentation calls applied ([incr]/[gauge_add]/[observe]/
    [Sim.*] each count once, whatever fan-out they perform internally).
    Used by the bench to bound the disabled-guard overhead. *)

(** {1 Updates} — all no-ops on {!null}. [labels] default to []. *)

val incr : t -> ?labels:(string * string) list -> string -> float -> unit
(** Add to a (monotone) counter. *)

val gauge_add : t -> ?labels:(string * string) list -> string -> float -> unit
(** Add to a gauge (a non-monotone accumulator, e.g. per-link load). *)

val observe : t -> ?labels:(string * string) list -> string -> float -> unit
(** Record a sample into a histogram with power-of-two bucket boundaries:
    a sample [v > 0] lands in the bucket [(2^(e-1), 2^e]] with the smallest
    such [e]; [v <= 0] lands in a dedicated zero bucket. The running [sum]
    accumulates samples in call order (exact reconciliation). *)

val value : t -> ?labels:(string * string) list -> string -> float
(** Current value of a counter/gauge series; 0 if absent or disabled. *)

(** {1 Snapshots} *)

type kind = Counter | Gauge | Histogram

type hist = {
  count : int;  (** total observations, zero bucket included *)
  sum : float;
  buckets : (float * int) list;
      (** (inclusive upper bound, non-cumulative count), ascending; a
          leading [(0.0, n)] entry is the zero bucket *)
}

type sample = Value of float | Dist of hist

type series = {
  name : string;
  labels : (string * string) list;  (** sorted by label key *)
  kind : kind;
  sample : sample;
}

val snapshot : t -> series list
(** All series sorted by (name, labels); [] on {!null}. *)

val hist_quantile : hist -> float -> float
(** [hist_quantile h q]: the [q]-quantile estimated by linear interpolation
    inside the covering bucket; 0 on an empty histogram. *)

val to_json : series list -> Json.t
(** [{"schema":"infs-metrics-1","series":[...]}] — counters/gauges carry
    ["value"], histograms ["count"]/["sum"]/["buckets"] (pairs of
    [[upper_bound, count]]). *)

val to_prom : series list -> string
(** Prometheus text exposition: names are prefixed [infs_] and sanitized,
    counters get a [_total] suffix, histograms render cumulative [le]
    buckets plus [+Inf], [_sum] and [_count]. *)

val write_file : t -> string -> unit
(** Write a snapshot to [path]; format chosen by extension ([.prom] →
    Prometheus text, anything else → JSON), looking through a trailing
    [.shard<i>] / [.front] suffix ({!Side_file.has_ext}). No-op on
    {!null}. *)

(** {1 Event-shaped instrumentation}

    One function per trace-event shape, shared verbatim between the live
    simulator call sites and the offline trace replayer ({!Trace_replay})
    so both produce identical registries. Mesh/bank geometry is passed as
    plain ints to keep this library independent of [infs_sim]. *)
module Sim : sig
  val noc_packet :
    t ->
    mx:int ->
    my:int ->
    cat:string ->
    bytes:float ->
    hops:float ->
    packets:float ->
    unit
  (** Per-category [noc.bytes]/[noc.byte_hops]/[noc.packets] counters
      (mirroring [Traffic] buckets exactly), a [noc.packet_bytes{cat}]
      size histogram, and per-link [noc.link.byte_hops{link}] gauges: the
      packet's byte-hops are spread over the [mx]×[my] mesh links in
      proportion to static XY-routing traversal weights (uniform
      bank-to-bank pairs), labeling links ["sx,sy>dx,dy"]. *)

  val local_move : t -> channel:string -> bytes:float -> unit

  val sram_cmd :
    t ->
    banks:int ->
    kind:string ->
    label:string ->
    tiles:int ->
    cycles:float ->
    unit
  (** Retired bit-serial command: [sram.commands{kind}] counter,
      [imc.cmd_cycles{kind}] latency histogram, and per-bank
      [imc.bank.busy_cycles{bank}] occupancy over [min tiles banks]
      banks starting at a deterministic label-derived offset. *)

  val sync_barrier : t -> cycles:float -> unit
  val dram_burst : t -> channels:int -> bytes:float -> cycles:float -> unit
  val ttu : t -> bytes:float -> cycles:float -> unit
  val jit_exit : t -> commands:int -> cycles:float -> unit
  val memo : t -> hit:bool -> unit
  val decision : t -> target:string -> unit
  val region_exec : t -> kernel:string -> where:string -> cycles:float -> unit

  val fault : t -> site:string -> action:string -> cycles:float -> unit
  (** One fault event: [fault{site,action}] counter plus, when
      [cycles > 0], a [fault.cycles{site}] counter attributing simulated
      cycles lost to the fault (stall penalties, wasted attempts). *)

  val cycles : t -> cat:string -> float -> unit
  (** One breakdown charge: observed into the [cycles{cat}] histogram whose
      per-category sums reconcile with [Report.breakdown] at 0.0
      tolerance. *)

  val counter : t -> name:string -> value:float -> unit
  (** A raw trace counter event: [cycles.<cat>] routes to {!cycles}, any
      other name increments a plain counter of that name. *)
end
