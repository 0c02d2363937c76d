(** Parsing of [infs-bench-1] benchmark snapshots (the [bench --json]
    output and the input of [bench-diff] / [trend] / [bench-bisect]).

    The format is one JSON object:
    [{"schema":"infs-bench-1","suite":...,"results":[...]}], each result
    carrying [workload], [paradigm], [tag] and simulated [cycles], plus —
    since the provenance satellite — an optional [meta] object of string
    fields (e.g. [commit], [timestamp]) that older files simply lack. *)

type entry = {
  workload : string;
  paradigm : string;
  tag : string;  (** "" for untagged results *)
  cycles : float;
}

type t = {
  suite : string;
  meta : (string * string) list;  (** [] when the file carries no [meta] *)
  results : entry list;  (** file order (the writer sorts by key) *)
}

val key : entry -> string
(** The comparison key ["<workload> [<paradigm>]"], with [" #<tag>"]
    appended for tagged entries — the same key [bench-diff] has always
    used. *)

val commit : t -> string option
(** [meta.commit], if present. *)

val timestamp : t -> string option
(** [meta.timestamp], if present. Written by [--meta-time]; never sourced
    from the clock in tests. *)

val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result

val pair : old_:t -> new_:t -> (entry * float option) list * (string * float) list
(** [(paired, removed)]: every entry of [new_] in file order with the
    cycles of the first [old_] entry under its {!key} ([None] for a new
    key), and the [(key, cycles)] of every [old_] entry whose key [new_]
    lacks, in file order. *)

val delta_pct : old_c:float -> new_c:float -> float
(** Signed percent change from [old_c] to [new_c]; [+] is slower. *)
