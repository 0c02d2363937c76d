(** Minimal JSON: a value type, a strict recursive-descent parser and a
    deterministic printer. Third-party JSON libraries are deliberately not
    a dependency; this covers the simulator's needs (JSON-lines job specs
    and report lines for [infs_run batch]).

    Printing is canonical: object fields keep their construction order,
    floats use {!fmt_float} (shortest form that round-trips, integral
    values without a fraction — the same convention as [infs_trace]), so
    equal values print byte-identically. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one JSON document. Trailing whitespace is allowed; anything else
    after the value is an error. Errors carry a character offset. Arrays
    and objects nested deeper than 512 levels are an error
    (["json: nesting deeper than 512 at offset N"]), so an untrusted line
    cannot make the parser recurse without bound. *)

val to_string : t -> string

val fmt_float : float -> string
(** ["1310719.375"], ["3"], ["0.1"]. Printing is total: JSON has no
    literal for [nan] or the infinities, so non-finite floats print as
    ["null"] — the document stays valid JSON and the value round-trips
    as {!Null}. *)

(** {1 Accessors} — total functions returning [option]. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_str : t -> string option
val to_num : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val to_list : t -> t list option

val escape : string -> string
(** The JSON string literal for [s], including the surrounding quotes. *)
