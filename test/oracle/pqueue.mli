(** Mutable binary-heap priority queue keyed by float priority
    (lowest priority pops first).  Ties are broken by insertion order
    so that the discrete-event simulator is deterministic.  It backs
    the reference engine ([Heap_sim]) and the reference reorderer in
    the tests. *)

type 'a t

(** [create ()] is an empty queue. *)
val create : unit -> 'a t

(** [length t] is the number of queued elements. *)
val length : 'a t -> int

(** [is_empty t] is [length t = 0]. *)
val is_empty : 'a t -> bool

(** [push t priority v] inserts [v]. *)
val push : 'a t -> float -> 'a -> unit

(** [pop t] removes and returns the minimum-priority element with its
    priority, or [None] when empty.  Equal priorities pop in insertion
    order (FIFO). *)
val pop : 'a t -> (float * 'a) option

(** [peek t] returns the minimum without removing it. *)
val peek : 'a t -> (float * 'a) option

(** [peek_prio t] is the minimum priority, or [infinity] when empty.
    Does not allocate (unlike [peek], which boxes a tuple). *)
val peek_prio : 'a t -> float

(** [capacity t] is the current backing-array size.  Exposed so tests
    and diagnostics can observe the bounded shrink policy: the array is
    halved when occupancy drops to a quarter and never drops below 16
    slots once allocated. *)
val capacity : 'a t -> int

(** [clear t] removes every element.  The backing array is retained
    under a bounded shrink policy (halved when occupancy drops to a
    quarter, never below 16 slots), so drain/refill cycles do not
    reallocate from scratch. *)
val clear : 'a t -> unit
