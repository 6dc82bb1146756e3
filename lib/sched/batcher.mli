(** Dynamic batching for the elastic serving layer.

    Per-slot (one per accelerator instance) queues coalesce compatible
    requests into batches before dispatch, amortizing reconfiguration
    and control overhead the way a real serving system amortizes
    kernel launches.  A batch dispatches when it reaches [max_batch]
    requests, or when [max_linger_us] has elapsed since its first
    request — whichever comes first, so a lone request never waits
    longer than the linger bound.

    A caller takes one {!slot} per queue, once, and holds it: no call
    on the hot path looks a queue up by name.

    The batcher itself owns no timers: {!add} tells the caller when a
    flush deadline was armed ([Opened]), and the caller schedules a
    simulator event that calls {!flush_due}.  A stale flush event — the
    batch it was armed for already dispatched on fullness — returns
    [[]] and is harmless, because {!flush_due} only releases a batch
    whose own linger deadline has actually passed. *)

type config = {
  max_batch : int;  (** dispatch immediately at this size *)
  max_linger_us : float;  (** oldest request never waits longer *)
}

(** [config ()] defaults to batches of 4 with a 300 µs linger.
    @raise Invalid_argument on [max_batch < 1] or a negative
    linger. *)
val config : ?max_batch:int -> ?max_linger_us:float -> unit -> config

type 'a t

(** [create cfg] builds a batcher with no slots. *)
val create : config -> 'a t

(** One queue of a batcher, with no pending requests when made. *)
type 'a slot

(** [slot t] makes a new, empty queue of [t]; its batches count in
    [batches t]. *)
val slot : 'a t -> 'a slot

type 'a outcome =
  | Dispatch of 'a list  (** batch filled: serve these now *)
  | Opened of float
      (** request opened a new batch; arm a flush at this absolute
          time *)
  | Joined  (** request joined the pending batch *)

(** [add s ~now_us x] enqueues one request. *)
val add : 'a slot -> now_us:float -> 'a -> 'a outcome

(** [flush_due s ~now_us] pops the pending batch if its linger
    deadline has passed; [[]] otherwise (including stale timers). *)
val flush_due : 'a slot -> now_us:float -> 'a list

(** [drain s] unconditionally pops the pending batch (end-of-run
    cleanup). *)
val drain : 'a slot -> 'a list

(** [pending s] counts requests waiting in [s]'s open batch. *)
val pending : 'a slot -> int

(** [batches t] counts batches dispatched so far from every slot of
    [t] (fullness, linger and drain alike). *)
val batches : 'a t -> int
