(** Compiled-mapping / result cache for the serving front door.

    An LRU keyed by canonical shape signatures
    ({!Mlv_core.Mapdb.shape_signature} in practice — the key space
    where equal keys mean equal compiled shapes), so repeat requests
    for an already-compiled accelerator skip the
    decompose/partition/mapping pipeline and pay only queue and
    service time.  The key type is a parameter: a caller that interns
    each signature to an int (equal ints exactly when equal
    signatures) gets the same hits, misses and evictions without
    hashing kilobyte strings per request.

    An exact LRU ({!Mlv_util.Lru}): every operation is O(1).  Hit /
    miss / eviction counts are mirrored into the
    {!Mlv_obs.Obs} registry under [serve.mapcache.*], where the
    telemetry scrape loop picks them up. *)

type ('k, 'a) t

(** @raise Invalid_argument when [capacity < 1]. *)
val create : capacity:int -> unit -> ('k, 'a) t

val capacity : ('k, 'a) t -> int
val length : ('k, 'a) t -> int

(** [mem t key] probes without touching recency or counters. *)
val mem : ('k, 'a) t -> 'k -> bool

(** [find t key] returns the cached value and refreshes its recency;
    counts a hit or a miss. *)
val find : ('k, 'a) t -> 'k -> 'a option

(** [put t key v] inserts or overwrites, as the most recently used
    entry; inserting into a full cache evicts the least recently used
    one. *)
val put : ('k, 'a) t -> 'k -> 'a -> unit

val hits : ('k, 'a) t -> int
val misses : ('k, 'a) t -> int
val evictions : ('k, 'a) t -> int

(** Hits over probes, 0 before any probe. *)
val hit_rate : ('k, 'a) t -> float

(** Keys most-recently-used first. *)
val keys : ('k, 'a) t -> 'k list
