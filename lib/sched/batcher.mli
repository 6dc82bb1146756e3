(** Dynamic batching for the elastic serving layer.

    Per-key (accelerator-instance) queues coalesce compatible requests
    into batches before dispatch, amortizing reconfiguration and
    control overhead the way a real serving system amortizes kernel
    launches.  A batch dispatches when it reaches [max_batch]
    requests, or when [max_linger_us] has elapsed since its first
    request — whichever comes first, so a lone request never waits
    longer than the linger bound.

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

(** [create cfg] builds a batcher with no pending requests. *)
val create : config -> 'a t

type 'a outcome =
  | Dispatch of 'a list  (** batch filled: serve these now *)
  | Opened of float
      (** request opened a new batch; arm a flush at this absolute
          time *)
  | Joined  (** request joined the pending batch *)

(** [add t ~key ~now_us x] enqueues one request. *)
val add : 'a t -> key:string -> now_us:float -> 'a -> 'a outcome

(** [flush_due t ~key ~now_us] pops the pending batch if its linger
    deadline has passed; [[]] otherwise (including stale timers). *)
val flush_due : 'a t -> key:string -> now_us:float -> 'a list

(** [drain t ~key] unconditionally pops the pending batch (end-of-run
    cleanup). *)
val drain : 'a t -> key:string -> 'a list

(** [pending t ~key] counts requests waiting in [key]'s open batch. *)
val pending : 'a t -> key:string -> int

(** [batches t] counts batches dispatched so far (fullness, linger and
    drain alike). *)
val batches : 'a t -> int
