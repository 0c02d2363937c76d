(** Hash table from an int to an int, by open addressing.

    The e-graph's hashcons for the nodes that pack into one int (see
    {!Egraph}). A slot is two ints in one flat array, the key and its
    value, so a lookup reads one cache line instead of walking a bucket
    list, and the garbage collector has no pointers to follow. Probing is
    linear; {!remove} shifts the rest of a probe run back into the hole,
    so no tombstones build up. The table doubles when an add would take
    it past three quarters full, and it never shrinks.

    The table is never iterated, so its layout does not affect any
    result. Keys and values are [>= 0]: [-1] marks an empty slot and an
    absent key. *)

type t

val create : int -> t
(** An empty table with room for at least this many slots (at least 16,
    rounded up to a power of two). *)

val find : t -> int -> int
(** The key's value, or [-1] when it is absent. *)

val add : t -> int -> int -> unit
(** [add t k v] binds an absent key; the caller guarantees that it is
    absent. [Invalid_argument] on a negative key or value. *)

val replace : t -> int -> int -> unit
(** Binds the key, replacing any value it had. *)

val remove : t -> int -> unit
(** Unbinds the key; a no-op when it is absent. *)

val length : t -> int
(** Bound keys. *)

val capacity : t -> int
(** Slots. *)
