(** One instrumentation handle per run: the trace sink, the metrics
    registry and the span profiler behind one [on] test.

    Instrumented code builds an event only when {!on} holds and hands it
    to {!emit}, which writes it to the trace and folds it into the
    registry with {!Metrics.apply}. Replay ({!Trace_replay}) folds a
    parsed trace through the same function, so the live and replayed
    registries agree by construction.

    Three things reach past the event stream: live-only registry series
    that have no event ({!metrics}), profiler spans ({!prof}, whose count
    and time come from the same span), and serve's host-time request
    spans (written to the trace, never folded). *)

type t

val null : t
(** Everything disabled: [on null = false], {!emit} is a no-op. *)

val create :
  trace:Trace.t -> metrics:Metrics.t -> prof:Prof.t -> geometry:Metrics.geometry -> t
(** [geometry] is the machine shape the fold attributes per-link,
    per-bank and per-channel series to. *)

val on : t -> bool
(** The trace or the registry is enabled. Guard event construction with
    this at every emit site. *)

val emit : t -> Trace.event -> unit
(** Write the event to the trace and fold it into the registry. *)

val metrics : t -> Metrics.t
(** The registry, for live-only series that have no event. *)

val prof : t -> Prof.t
(** The span profiler. *)
