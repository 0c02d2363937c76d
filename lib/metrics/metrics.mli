(** Labeled metrics: counters, gauges and log2-bucketed histograms.

    Zero third-party dependencies (stdlib, [infs_util], and [infs_trace]
    for the event type it folds). {!null} is a permanently disabled
    registry that performs no allocation or hashing. The simulator does
    not write to a registry directly: it emits events through an {!Obs.t}
    handle, which folds each one here with {!apply}; only live-only
    series (near-memory stall causes, serve queue depth and latency, pool
    utilization) are written with {!incr}/{!gauge_add}/{!observe}.

    Series are keyed by (metric name, sorted label set). Updates are not
    thread-safe: a registry belongs to one domain (batch jobs each create
    their own, like trace sinks).

    Determinism: {!snapshot} is sorted by (name, labels); float
    accumulations happen in call order, so a metric that mirrors a
    simulator accumulator (e.g. [noc.byte_hops{cat}] vs. [Traffic]) is
    bit-identical to it, and replaying a JSONL trace through {!apply}
    reproduces the live registry exactly. *)

type t

val null : t
(** Disabled registry: every operation is a no-op. *)

val create : unit -> t

val enabled : t -> bool

val calls : t -> int
(** Number of instrumentation calls applied ([incr]/[gauge_add]/[observe]/
    [apply] each count once, whatever fan-out they perform internally).
    Used by the bench to bound the disabled-guard overhead. *)

(** {1 Updates} — all no-ops on {!null}. [labels] default to []. *)

val incr : t -> ?labels:(string * string) list -> string -> float -> unit
(** Add to a (monotone) counter. *)

val gauge_add : t -> ?labels:(string * string) list -> string -> float -> unit
(** Add to a gauge (a non-monotone accumulator, e.g. per-link load). *)

val observe : t -> ?labels:(string * string) list -> string -> float -> unit
(** Record a sample into a histogram with power-of-two bucket boundaries:
    a sample [v > 0] lands in the bucket [(2^(e-1), 2^e]] with the smallest
    such [e], clamped to [-64 <= e <= 128] (so [+inf] lands in the top
    bucket); [v <= 0] lands in a dedicated zero bucket. A NaN sample is
    ignored. The running [sum] accumulates samples in call order (exact
    reconciliation). *)

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

(** {1 The event fold}

    The registry is a fold of the {!Trace.event} stream: {!apply} is the
    one place an event becomes series. The live path ({!Obs.emit}) and
    offline replay ({!Trace_replay}) both call it, so a replayed trace
    rebuilds the live registry by construction. Mesh/bank/channel
    geometry is passed as plain ints to keep this library independent of
    [infs_sim]. *)

type geometry = {
  mesh_x : int;  (** mesh columns, for per-link NoC load *)
  mesh_y : int;  (** mesh rows *)
  banks : int;  (** SRAM banks, for per-bank occupancy *)
  channels : int;  (** DRAM channels, for the burst interleave *)
}

val default_geometry : geometry
(** The paper's machine: an 8x8 mesh, 64 banks, 16 channels. *)

val apply : t -> geometry -> Trace.event -> unit
(** Fold one event into the registry (counts as one call):
    - [Noc_packet] [Send]: per-category [noc.bytes]/[noc.byte_hops]/
      [noc.packets] counters (mirroring [Traffic] buckets exactly), a
      [noc.packet_bytes{cat}] size histogram, and per-link
      [noc.link.byte_hops{link}] gauges — the packet's byte-hops spread
      over the mesh links in proportion to static XY-routing traversal
      weights (uniform bank-to-bank pairs), links labeled ["sx,sy>dx,dy"];
    - [Local_move]: [local.bytes{channel}];
    - [Sram_cmd] [Retire]: [sram.commands{kind}], the
      [imc.cmd_cycles{kind}] latency histogram, and per-bank
      [imc.bank.busy_cycles{bank}] occupancy over [min tiles banks] banks
      starting at a deterministic label-derived offset;
    - [Sync_barrier]: [sync.barriers], [sync.cycles];
    - [Dram_burst]: [dram.bursts]/[dram.bytes]/[dram.busy_cycles], the
      [dram.burst_bytes] histogram and a round-robin
      [dram.channel.bytes{ch}] interleave in burst order;
    - [Ttu_transpose]: [ttu.bytes]/[ttu.cycles], [ttu.transpose_bytes];
    - [Jit_span] [Exit]: [jit.lowerings]/[jit.commands], the
      [jit.lower_cycles] histogram;
    - [Memo]: [jit.memo_hits] / [jit.memo_misses];
    - [Offload_decision]: [decision{target}];
    - [Region_exec]: [regions{where}], [region.cycles{kernel,where}];
    - [Fault]: [fault{site,action}], plus [fault.cycles{site}] when
      [cycles > 0] (simulated cycles lost to the fault);
    - [Counter]: [cycles.<cat>] is observed into the [cycles{cat}]
      histogram, whose per-category sums reconcile with
      [Report.breakdown] at 0.0 tolerance; any other name increments a
      plain counter of that name.

    [Noc_packet] [Deliver], [Sram_cmd] [Issue], [Jit_span] [Enter] and
    [Request_span] fold to nothing. *)
