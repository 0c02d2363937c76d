(** DRAM channel and tensor-transpose-unit (TTU) timing. *)

val load_cycles : Machine_config.t -> bytes:float -> float
(** Bandwidth-limited bulk transfer over all memory controllers. *)

val transpose_cycles : Machine_config.t -> bytes:float -> float
(** TTU occupancy to convert [bytes] between normal and transposed layout;
    all banks transpose their resident lines in parallel, pipelined with the
    fill (callers take [max] with the DRAM time, paper §5.2). *)

val load_traced :
  ?faults:Fault.injector -> Obs.t -> Machine_config.t -> bytes:float -> float
(** {!load_cycles}, additionally emitting a [Dram_burst] event through the
    handle when [bytes > 0] (folded into burst/channel metrics) and
    recording a ["dram.load"] span leaf under the same guard, so span
    counts reconcile with burst counts. With [faults], each burst draws a
    channel-stall fault adding [dram_stall_cycles] (emitted as a [fault]
    event). *)

val transpose_traced :
  ?faults:Fault.injector -> Obs.t -> Machine_config.t -> bytes:float -> float
(** {!transpose_cycles} with a [Ttu_transpose] event and a
    ["dram.transpose"] span leaf; stall faults as in {!load_traced}. *)

val fill_transposed_cycles : Machine_config.t -> bytes:float -> resident:bool -> float
(** Cycles to prepare [bytes] of data in transposed layout: a DRAM fetch
    (unless already [resident] in L3) overlapped with TTU transposition. *)
