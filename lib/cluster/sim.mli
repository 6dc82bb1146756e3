(** Deterministic discrete-event simulation engine.

    Time is in microseconds.  Events scheduled for the same instant
    fire in scheduling order (FIFO on ties), so runs are exactly
    reproducible.

    The event queue is a hierarchical timing wheel
    ([Mlv_util.Timing_wheel]) whose hot path is allocation-free.  A
    binary-heap engine behind the same interface lives in
    [test/oracle/heap_sim.ml] as the reference implementation:
    [test/test_sim_engine.ml] and [bench/sim.ml] check that both fire
    every event in the same order at the same time. *)

type t

(** [create ()] also registers this simulator's clock as the span
    sim-time source ({!Mlv_obs.Obs.set_sim_clock}); the most recently
    created simulator wins. *)
val create : unit -> t

(** [release t] unregisters this simulator's clock from the span
    sim-time source, if it is still the registered one — call when a
    run completes so the closure (and the sim state it captures)
    does not outlive the run and stamp stale sim times onto later
    spans.  No-op when a newer simulator has already taken over. *)
val release : t -> unit

(** [now t] is the current simulation time (µs). *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at [now t +. delay].
    @raise Invalid_argument on negative delays. *)
val schedule : t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~at f] runs [f] at absolute time [at].
    @raise Invalid_argument if [at] is in the past. *)
val schedule_at : t -> at:float -> (unit -> unit) -> unit

(** [run ?until t] processes events in time order until the queue is
    empty or the next event is later than [until].  When [until] is
    given, the clock always advances to it afterwards — also when
    later events remain queued — so rates measured against [now]
    cover the full interval. *)
val run : ?until:float -> t -> unit

(** [step t] processes one event; false when the queue is empty. *)
val step : t -> bool

(** [next_time t] is the timestamp of the earliest queued event, or
    [infinity] when the queue is empty.  Does not allocate. *)
val next_time : t -> float

(** [pending t] is the number of queued events. *)
val pending : t -> int

(** [events_processed t] counts events fired so far. *)
val events_processed : t -> int
