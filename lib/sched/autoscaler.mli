(** Scale-out-driven autoscaler for the elastic serving layer.

    A control loop samples each deployment group on the simulation
    clock and decides between three actions:

    - [Scale_up] when backlog per replica exceeds the high watermark,
      or the observed p99 sojourn breaches the group's deadline, and
      the replica count is below [max_replicas];
    - [Scale_down] when backlog per replica has fallen to the low
      watermark, at least one replica has sat idle for
      [idle_timeout_us], and the count is above [min_replicas];
    - [Hold] otherwise, and always during the post-actuation
      [cooldown_us] window (hysteresis: a fresh replica must absorb
      load before the loop reacts again).

    The p99 signal comes from a {!tracker} wrapping detached
    observability histograms ({!Mlv_obs.Obs.Histogram.detached}), so
    decisions depend only on sojourns observed in the tracker's own
    run — never on state leaked through the global registry.  The
    tracker is {e windowed} (two epochs of [p99_window_us], rotated
    inside {!decide}; both cleared on {!mark_scaled}), so the
    estimate reflects recent sojourns only: a cumulative histogram
    would latch a single early burst into a permanent p99 breach and
    pin the group at [max_replicas] for the rest of the run.  The two
    windows are allocated once per tracker and reused in place
    ({!Mlv_obs.Obs.Histogram.clear}): a rotation or a scale event
    allocates nothing and costs only the buckets the windows occupy.

    Bootstrap exception: a group with zero replicas and positive
    backlog scales up regardless of cooldown, otherwise the first
    request of a burst could wait out a full cooldown with no capacity
    at all. *)

type config = {
  interval_us : float;  (** control-loop sampling period *)
  high_backlog_per_replica : float;  (** scale-up watermark *)
  low_backlog_per_replica : float;  (** scale-down watermark *)
  cooldown_us : float;  (** hold-off after any actuation *)
  idle_timeout_us : float;  (** replica idle time before reclaim *)
  min_replicas : int;
  max_replicas : int;
  p99_window_us : float;
      (** width of each p99 observation epoch; the breach signal sees
          at most the last two epochs *)
}

(** Defaults: 1 ms interval, watermarks 3.0 / 0.5, 2 ms cooldown, 2 ms
    idle timeout, 0..8 replicas, 10 ms p99 window. *)
val default : config

(** [config ()] is {!default} with overrides.
    @raise Invalid_argument on a non-positive interval, inverted
    watermarks ([low > high]), negative cooldown/idle timeout, or
    [min_replicas < 0 || max_replicas < max 1 min_replicas]. *)
val config :
  ?interval_us:float ->
  ?high_backlog_per_replica:float ->
  ?low_backlog_per_replica:float ->
  ?cooldown_us:float ->
  ?idle_timeout_us:float ->
  ?min_replicas:int ->
  ?max_replicas:int ->
  ?p99_window_us:float ->
  unit ->
  config

type decision = Scale_up | Scale_down | Hold

val decision_to_string : decision -> string

(** Per-group controller state: the sojourn histogram feeding the p99
    signal plus the time of the last actuation. *)
type tracker

val tracker : name:string -> tracker

(** [observe_sojourn tr us] feeds one completed request's sojourn. *)
val observe_sojourn : tracker -> float -> unit

(** [p99_sojourn_us tr] is the current p99 estimate — the worse of
    the two live epochs (0 when no samples yet). *)
val p99_sojourn_us : tracker -> float

(** [sojourn_count tr] counts samples across the two live epochs. *)
val sojourn_count : tracker -> int

(** [mark_scaled tr ~now_us] starts the cooldown window and clears
    both observation epochs in place (their samples describe the old
    replica count); call after actually actuating a decision.
    Allocation-free. *)
val mark_scaled : tracker -> now_us:float -> unit

(** [decide cfg tr ~now_us ~backlog ~replicas ~idle ~deadline_us]
    evaluates one control step.  [backlog] counts queued requests for
    the group (batcher pending plus undispatched batches), [replicas]
    its current replica count, [idle] how many replicas have been idle
    for at least [idle_timeout_us], and [deadline_us] the SLO deadline
    driving the p99 trigger (0 disables it). *)
val decide :
  config ->
  tracker ->
  now_us:float ->
  backlog:int ->
  replicas:int ->
  idle:int ->
  deadline_us:float ->
  decision

(** {1 Predictive mode}

    Forecast-driven scaling: a {!Forecast} Holt-Winters model over
    the per-tick arrival rate (the number the telemetry series
    publishes) sizes the fleet for the rate [horizon] ticks ahead —
    [target = ceil(rate * mean_service / headroom)] — instead of
    reacting to backlog watermarks after the queue has already built.
    Scale-up is exempt from the cooldown (acting ahead of a predicted
    ramp is the point); scale-down keeps the cooldown and the
    idle-replica requirement so forecast noise cannot thrash the warm
    pool. *)

type predict = {
  horizon : int;  (** forecast this many control ticks ahead, >= 1 *)
  season_ticks : int;  (** seasonal period in control ticks, >= 1 *)
  alpha : float;  (** level smoothing, in [0, 1] *)
  beta : float;  (** trend smoothing; 0 = seasonal EWMA *)
  gamma : float;  (** season smoothing *)
  headroom : float;  (** target utilization in (0, 1] *)
  warmup : int;
      (** rate samples before the forecast is trusted; the reactive
          {!decide} rules apply until then *)
}

(** Horizon 2, season 32 ticks, smoothing 0.5/0.1/0.3, 70%
    utilization target, warmup of one season. *)
val default_predict : predict

(** [predict ()] is {!default_predict} with overrides; [warmup]
    defaults to [season_ticks].
    @raise Invalid_argument on a non-positive horizon/season/warmup,
    smoothing outside [0, 1], or headroom outside (0, 1]. *)
val predict :
  ?horizon:int ->
  ?season_ticks:int ->
  ?alpha:float ->
  ?beta:float ->
  ?gamma:float ->
  ?headroom:float ->
  ?warmup:int ->
  unit ->
  predict

(** Per-group predictive state: the rate forecaster plus an EWMA of
    observed per-task service time. *)
type ptracker

val ptracker : predict -> ptracker

(** [observe_rate pt r] feeds one control tick's arrival rate in
    events per second (exactly one sample per tick, in order). *)
val observe_rate : ptracker -> float -> unit

(** [observe_service pt us] feeds one completed task's unqueued
    service time into the capacity EWMA; non-positive samples are
    ignored. *)
val observe_service : ptracker -> float -> unit

(** [decide_predictive cfg p tr pt ...] is one predictive control
    step: the decision plus the target replica count to grow toward
    (a predicted flash crowd closes the whole gap in one tick, where
    the reactive loop moves by one replica).  Falls back to the
    reactive {!decide} while the model is cold (fewer than [warmup]
    rate samples, or no service-time sample yet). *)
val decide_predictive :
  config ->
  predict ->
  tracker ->
  ptracker ->
  now_us:float ->
  backlog:int ->
  replicas:int ->
  idle:int ->
  deadline_us:float ->
  decision * int
