(** Side-file paths whose extension selects the file's format.

    A sharded server derives per-process side files from one
    user-given path [F]: shard [i] writes [F.shard<i>] and the front
    writes its profile to [F.front]. Each file keeps [F]'s format. *)

val has_ext : string -> string -> bool
(** [has_ext path ext]: [path], minus one trailing [.shard<i>] or
    [.front] suffix, ends in [ext]. [has_ext "x.prof.json.shard0" ".json"]
    and [has_ext "x.json" ".json"] hold; [has_ext "x.shard0" ".json"]
    does not. *)
