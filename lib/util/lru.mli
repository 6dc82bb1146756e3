(** Exact least-recently-used cache: a hash table for lookup beside an
    intrusive doubly linked recency list, so lookup, promotion,
    insertion and eviction are all O(1).  It counts its own hits,
    misses and evictions. *)

type ('k, 'v) t

(** [create capacity] holds up to [capacity] entries.
    @raise Invalid_argument when [capacity < 1]. *)
val create : int -> ('k, 'v) t

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

(** [mem t k] probes without touching recency or the counts. *)
val mem : ('k, 'v) t -> 'k -> bool

(** [find t k] is [k]'s value, now the most recently used entry;
    counts a hit or a miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [put t k v] binds [k] to [v] as the most recently used entry.  A
    new key in a full cache first evicts the least recently used entry
    and returns [true]; overwriting a bound key never evicts. *)
val put : ('k, 'v) t -> 'k -> 'v -> bool

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int

(** Hits over {!find}s, 0 before any. *)
val hit_rate : ('k, 'v) t -> float

(** Keys, most recently used first. *)
val keys : ('k, 'v) t -> 'k list
