(** Seeded hardware-fault models for the simulator.

    A {!spec} describes [what] can go wrong and how often; an {!injector}
    is a per-run instance that draws faults from deterministic, per-site
    RNG streams.  Determinism contract: the injector is seeded from
    [spec.seed] combined with a caller-supplied scope string (workload
    name + paradigm), so identical specs produce identical fault
    sequences regardless of pool scheduling or [--jobs] count, and one
    site's draw count never perturbs another site's stream.

    Four fault sites are modeled:
    - [Sram]: transient bit flips in the bit-serial SRAM arrays while a
      shift/compute command toggles bitlines (probability scales with
      the command's array occupancy).
    - [Noc]: link degradation — a degraded bulk transfer takes
      [jitter]x its nominal cycles.
    - [Dram]: channel stalls adding a fixed penalty to a burst.
    - [Watchdog]: near-memory stream-engine hangs detected by a
      watchdog; the attempt's cycles are wasted and it must be retried
      or re-targeted. *)

type site = Sram | Noc | Dram | Watchdog

val site_name : site -> string
(** ["sram" | "noc" | "dram" | "watchdog"]. *)

val all_sites : site list
(** Fixed order: [Sram; Noc; Dram; Watchdog]. *)

type spec = {
  seed : int;  (** base seed for all fault streams *)
  sram_flip : float;  (** per-array-cycle bit-flip probability *)
  noc_degrade : float;  (** per-bulk-transfer degradation probability *)
  noc_jitter : float;  (** latency multiplier of a degraded transfer (>= 1) *)
  dram_stall : float;  (** per-burst stall probability *)
  dram_stall_cycles : float;  (** stall penalty in cycles *)
  watchdog : float;  (** per-offload stream-engine timeout probability *)
  max_retries : int;  (** bounded retries before paradigm fallback *)
}

val none : spec
(** All rates zero, seed 0 — the default.  An engine run with [none]
    installs no injector and behaves byte-identically to a build
    without fault support. *)

val is_none : spec -> bool
(** Structural equality with {!none}.  Note a spec like ["seed=42"]
    (all rates zero but non-default seed) is [not (is_none spec)]:
    hooks are armed and counted, yet nothing is ever injected. *)

val parse : string -> (spec, string) result
(** Parse a comma-separated [key=value] spec, e.g.
    ["seed=42,sram=2e-4,noc=0.05,jitter=2.0,dram=0.01,stall=4096,watchdog=0.05,retries=2"].
    Keys: [seed], [sram], [noc], [jitter], [dram], [stall], [watchdog],
    [retries]; omitted keys keep their {!none} defaults (jitter 2.0,
    stall 2048, retries 2).  Every value must be finite and inside its
    range: probabilities in [0, 1], [jitter] in [1, 4], [stall] in
    [0, 8192] cycles, [retries] an integer in [0, 4].  The error names
    the key and its range. *)

val to_string : spec -> string
(** Canonical round-trippable rendering (all keys, fixed order). *)

(** {1 Injector} *)

type injector

val create : spec -> scope:string -> injector
(** [create spec ~scope] builds per-site splitmix64 streams seeded from
    [spec.seed] and [scope].  Use a scope that identifies the run
    deterministically (e.g. ["stencil1d|inf-s"]). *)

val spec_of : injector -> spec
val max_retries : injector -> int

val sram_flip : injector -> exposure:int -> bool
(** One draw per SRAM command; [exposure] is the command's array-cycle
    occupancy, so longer bit-serial operations are proportionally more
    likely to take a flip: p = 1 - (1 - sram_flip)^exposure. *)

val noc_factor : injector -> float
(** One draw per bulk NoC transfer: [1.0] when healthy, [noc_jitter]
    when the link is degraded. *)

val dram_stall_cycles : injector -> float
(** One draw per DRAM burst: [0.0] when healthy, [dram_stall_cycles]
    when the channel stalls. *)

val watchdog_timeout : injector -> bool
(** One draw per near-memory offload attempt. *)

val injected : injector -> site -> int
(** Number of faults actually injected at [site] so far. *)

val total_injected : injector -> int
val draws : injector -> int
(** Total RNG draws across all sites — i.e. the number of fault-check
    sites the run passed through; used by the bench overhead gate. *)
