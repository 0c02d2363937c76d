(** Entry-by-entry comparison of two [infs-bench-1] snapshots — the
    regression gate [infs_run bench-diff].

    A simulated cycle count is a result, so the gate is two-sided: an
    entry that moved by more than [max_regress] percent in either
    direction fails it, and so does an entry that vanished from the new
    file. An entry only the new file has is listed and passes. *)

type status =
  | Steady  (** moved by at most [warn] percent *)
  | Warn  (** slower by more than [warn], at most [max_regress] percent *)
  | Improved  (** faster by more than [warn], at most [max_regress] percent *)
  | Regression  (** slower by more than [max_regress] percent; fails *)
  | Drop  (** faster by more than [max_regress] percent; fails *)
  | New  (** only in the new file *)
  | Removed  (** only in the old file; fails *)

type row = {
  key : string;  (** {!Bench_file.key} *)
  status : status;
  old_cycles : float option;  (** [None] for a new entry *)
  new_cycles : float option;  (** [None] for a removed entry *)
}

type t = { warn : float; max_regress : float; rows : row list }

val diff : warn:float -> max_regress:float -> old_:Bench_file.t -> new_:Bench_file.t -> t
(** Rows in new-file order, then the removed entries in old-file order
    ({!Bench_file.pair}). *)

val failed : t -> bool
(** Some row is a [Regression], a [Drop] or [Removed]. *)

val to_text : t -> string
(** One line per row that is not [Steady], failing statuses in capitals,
    then a summary line. *)

val to_json : t -> Json.t
(** Schema [infs-bench-diff-1]: the two bounds, the count of each status
    (compared, regressed, dropped, warned, improved, removed), the worst
    delta and one entry per row with its status (["ok"], ["warn"],
    ["improved"], ["regression"], ["drop"], ["new"] or ["removed"]),
    cycles and delta. *)
