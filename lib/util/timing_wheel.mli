(** Hierarchical timing wheel for the discrete-event simulator.

    Events are (time, thunk) pairs keyed by a non-negative float
    timestamp.  The wheel maps timestamps onto integer buckets of a
    fixed granularity and stores them in a three-level hierarchy of
    2048-slot wheels; events beyond the wheel horizon live on an
    unsorted overflow list (the calendar-queue fallback) and are
    folded back in as the clock advances.  Within a bucket, events
    are ordered by their exact (time, insertion-sequence) key, so pop
    order is identical to a binary heap with FIFO tie-breaking — the
    granularity affects performance only, never ordering.

    Level 0 keeps an occupancy bitmap (a bit per slot and a summary
    bit per 32-slot word), so finding the next pending bucket costs a
    few word operations however many empty buckets lie before it:
    sparse streams, with one event per hundreds of buckets, do not pay
    for the simulated time between events.

    The implementation is allocation-free on the steady-state path:
    event cells live in a struct-of-arrays arena (unboxed float
    timestamps, int links) recycled through a free list, so [push] and
    [pop] allocate nothing once the arena and batch buffers have grown
    to the working-set size. *)

type t

(** [create ()] is an empty wheel whose clock starts at time 0.
    [granularity_us] is the bucket width (default [1.0]); it must be
    strictly positive.  A granularity close to the typical event
    spacing keeps buckets near one event each, which is the fast
    path. *)
val create : ?granularity_us:float -> unit -> t

(** Number of pending events. *)
val length : t -> int

val is_empty : t -> bool

(** [push t ~at f] schedules [f] at absolute time [at].  Times earlier
    than the last popped time are clamped to "fire next" (the heap
    engine behaves identically).  @raise Invalid_argument when [at] is
    NaN or negative. *)
val push : t -> at:float -> (unit -> unit) -> unit

(** [next_time t] is the timestamp of the earliest pending event, or
    [infinity] when empty.  Does not allocate. *)
val next_time : t -> float

(** [pop t] removes and returns the earliest event.  Equal timestamps
    pop in insertion order (FIFO). *)
val pop : t -> (float * (unit -> unit)) option

(** [pop_fire t ~into] is [pop] without the option/tuple/boxed-float
    allocations: the timestamp is stored into the caller's float ref
    (an unboxed store) and the thunk returned directly.
    @raise Invalid_argument when the wheel is empty — guard with
    {!is_empty}. *)
val pop_fire : t -> into:float ref -> unit -> unit

(** [clear t] drops every pending event, keeping the arena. *)
val clear : t -> unit
