module Obs = Mlv_obs.Obs

type config = {
  interval_us : float;
  high_backlog_per_replica : float;
  low_backlog_per_replica : float;
  cooldown_us : float;
  idle_timeout_us : float;
  min_replicas : int;
  max_replicas : int;
  p99_window_us : float;
}

let default =
  {
    interval_us = 1_000.0;
    high_backlog_per_replica = 3.0;
    low_backlog_per_replica = 0.5;
    cooldown_us = 2_000.0;
    idle_timeout_us = 2_000.0;
    min_replicas = 0;
    max_replicas = 8;
    p99_window_us = 10_000.0;
  }

let config ?(interval_us = default.interval_us)
    ?(high_backlog_per_replica = default.high_backlog_per_replica)
    ?(low_backlog_per_replica = default.low_backlog_per_replica)
    ?(cooldown_us = default.cooldown_us)
    ?(idle_timeout_us = default.idle_timeout_us)
    ?(min_replicas = default.min_replicas)
    ?(max_replicas = default.max_replicas)
    ?(p99_window_us = default.p99_window_us) () =
  if interval_us <= 0.0 then invalid_arg "Autoscaler.config: non-positive interval";
  if low_backlog_per_replica > high_backlog_per_replica then
    invalid_arg "Autoscaler.config: low watermark above high watermark";
  if cooldown_us < 0.0 || idle_timeout_us < 0.0 then
    invalid_arg "Autoscaler.config: negative cooldown or idle timeout";
  if min_replicas < 0 || max_replicas < Stdlib.max 1 min_replicas then
    invalid_arg "Autoscaler.config: bad replica bounds";
  if p99_window_us <= 0.0 then
    invalid_arg "Autoscaler.config: non-positive p99 window";
  {
    interval_us;
    high_backlog_per_replica;
    low_backlog_per_replica;
    cooldown_us;
    idle_timeout_us;
    min_replicas;
    max_replicas;
    p99_window_us;
  }

type decision = Scale_up | Scale_down | Hold

let decision_to_string = function
  | Scale_up -> "scale-up"
  | Scale_down -> "scale-down"
  | Hold -> "hold"

(* Two-epoch windowed sojourn tracker.  The p99 signal reads the
   current and previous window only, so one early burst ages out of
   the estimate after at most two windows — a cumulative histogram
   latched [p99_breach] for the rest of the run and pinned replicas
   at max long after sojourns recovered.  Actuating a decision clears
   both windows outright: the retired samples describe the {e old}
   replica count and say nothing about the new one.

   The two windows are allocated once and reused: clearing and
   rotating work in place, so a scale event or a window turn costs
   the occupied buckets only.  The tracker is abstract, so no caller
   can hold a window across a rotation. *)
type tracker = {
  mutable cur : Obs.Histogram.t;  (* detached: this window's samples *)
  mutable prev : Obs.Histogram.t;  (* previous window *)
  mutable rotated_us : float;
  mutable last_scale_us : float;
}

let tracker ~name =
  {
    cur = Obs.Histogram.detached ~name ();
    prev = Obs.Histogram.detached ~name ();
    rotated_us = 0.0;
    last_scale_us = neg_infinity;
  }

let observe_sojourn tr us = Obs.Histogram.observe tr.cur us

let p99_sojourn_us tr =
  let p h =
    if Obs.Histogram.count h = 0 then 0.0 else Obs.Histogram.percentile h 99.0
  in
  Float.max (p tr.cur) (p tr.prev)

let sojourn_count tr =
  Obs.Histogram.count tr.cur + Obs.Histogram.count tr.prev

let mark_scaled tr ~now_us =
  tr.last_scale_us <- now_us;
  Obs.Histogram.clear tr.cur;
  Obs.Histogram.clear tr.prev;
  tr.rotated_us <- now_us

(* The current window becomes the previous one; the old previous
   window, emptied, becomes the current one. *)
let rotate_window cfg tr ~now_us =
  if now_us -. tr.rotated_us >= cfg.p99_window_us then begin
    let old_prev = tr.prev in
    tr.prev <- tr.cur;
    Obs.Histogram.clear old_prev;
    tr.cur <- old_prev;
    tr.rotated_us <- now_us
  end

(* ---------------- predictive mode ---------------- *)

(* Forecast-driven scaling: instead of reacting to backlog watermarks
   and p99 breaches, fit a Holt-Winters model to the per-tick arrival
   rate (the same number the telemetry Series reports) and size the
   fleet for the rate [horizon] ticks ahead:

     target = ceil(predicted_rate * mean_service / headroom)

   i.e. enough replicas to serve the predicted offered load at
   [headroom] utilization.  Scale-up is exempt from the cooldown —
   acting ahead of a predicted ramp is the entire point — while
   scale-down keeps the cooldown and the idle-replica requirement so
   a noisy forecast cannot thrash the warm pool. *)
type predict = {
  horizon : int;  (* forecast this many ticks ahead *)
  season_ticks : int;  (* seasonal period, in control ticks *)
  alpha : float;
  beta : float;
  gamma : float;
  headroom : float;  (* target utilization in (0, 1] *)
  warmup : int;  (* rate samples before the forecast is trusted *)
}

let default_predict =
  {
    horizon = 2;
    season_ticks = 32;
    alpha = 0.5;
    beta = 0.1;
    gamma = 0.3;
    headroom = 0.7;
    warmup = 32;
  }

let predict ?(horizon = default_predict.horizon)
    ?(season_ticks = default_predict.season_ticks)
    ?(alpha = default_predict.alpha) ?(beta = default_predict.beta)
    ?(gamma = default_predict.gamma) ?(headroom = default_predict.headroom)
    ?warmup () =
  if horizon < 1 then invalid_arg "Autoscaler.predict: horizon must be >= 1";
  if season_ticks < 1 then
    invalid_arg "Autoscaler.predict: season must be >= 1 tick";
  if not (headroom > 0.0 && headroom <= 1.0) then
    invalid_arg "Autoscaler.predict: headroom must be in (0, 1]";
  let warmup = Option.value warmup ~default:season_ticks in
  if warmup < 1 then invalid_arg "Autoscaler.predict: warmup must be >= 1";
  ignore (Forecast.create ~alpha ~beta ~gamma ~period:season_ticks ());
  { horizon; season_ticks; alpha; beta; gamma; headroom; warmup }

(* Per-group predictive state: the rate model plus an EWMA of
   observed per-task service time (the capacity side of the sizing
   formula). *)
type ptracker = {
  pt_forecast : Forecast.t;
  mutable pt_service_ewma_us : float;
  mutable pt_service_n : int;
}

let ptracker (p : predict) =
  {
    pt_forecast =
      Forecast.create ~alpha:p.alpha ~beta:p.beta ~gamma:p.gamma
        ~period:p.season_ticks ();
    pt_service_ewma_us = 0.0;
    pt_service_n = 0;
  }

let observe_rate pt rate_per_s = Forecast.observe pt.pt_forecast rate_per_s

let observe_service pt us =
  if us > 0.0 then begin
    if pt.pt_service_n = 0 then pt.pt_service_ewma_us <- us
    else pt.pt_service_ewma_us <- (0.1 *. us) +. (0.9 *. pt.pt_service_ewma_us);
    pt.pt_service_n <- pt.pt_service_n + 1
  end

let rate_samples pt = Forecast.observations pt.pt_forecast

let decide cfg tr ~now_us ~backlog ~replicas ~idle ~deadline_us =
  (* Rotate even while held in cooldown so stale samples age out. *)
  rotate_window cfg tr ~now_us;
  if replicas = 0 && backlog > 0 then
    (* Bootstrap: with no capacity at all, waiting out a cooldown
       only delays the inevitable first replica. *)
    if replicas < cfg.max_replicas then Scale_up else Hold
  else if now_us -. tr.last_scale_us < cfg.cooldown_us then Hold
  else begin
    let per_replica =
      if replicas = 0 then 0.0
      else float_of_int backlog /. float_of_int replicas
    in
    (* A window's percentile is clamped to its exact maximum, so no
       p99 can exceed a deadline the largest sojourn meets: skip the
       bucket scan then. *)
    let p99_breach =
      deadline_us > 0.0
      && sojourn_count tr > 0
      && Float.max (Obs.Histogram.max tr.cur) (Obs.Histogram.max tr.prev)
         > deadline_us
      && p99_sojourn_us tr > deadline_us
    in
    if
      replicas < cfg.max_replicas
      && (per_replica > cfg.high_backlog_per_replica || p99_breach)
    then Scale_up
    else if
      replicas > cfg.min_replicas && idle > 0
      && per_replica <= cfg.low_backlog_per_replica
    then Scale_down
    else Hold
  end

(* One predictive control step.  Returns the decision plus the target
   replica count the caller should grow toward (the reactive loop only
   ever moves by one; a predicted flash crowd wants the whole gap
   closed in one tick).  Falls back to the reactive {!decide} while
   the model is cold — fewer than [warmup] rate samples, or no
   completed task has calibrated the service EWMA yet. *)
let decide_predictive cfg (p : predict) tr pt ~now_us ~backlog ~replicas ~idle
    ~deadline_us =
  if rate_samples pt < p.warmup || pt.pt_service_n = 0 then begin
    let d = decide cfg tr ~now_us ~backlog ~replicas ~idle ~deadline_us in
    let target =
      match d with
      | Scale_up -> min (replicas + 1) cfg.max_replicas
      | Scale_down -> max (replicas - 1) cfg.min_replicas
      | Hold -> replicas
    in
    (d, target)
  end
  else begin
    rotate_window cfg tr ~now_us;
    let rate = Float.max 0.0 (Forecast.forecast pt.pt_forecast ~ahead:p.horizon) in
    let per_replica_per_s = 1e6 /. pt.pt_service_ewma_us in
    let demand = rate /. (per_replica_per_s *. p.headroom) in
    let target = int_of_float (Float.ceil demand) in
    (* Predicted-quiet with work already queued still needs capacity. *)
    let target = if backlog > 0 then Stdlib.max target 1 else target in
    let target = min (Stdlib.max target cfg.min_replicas) cfg.max_replicas in
    if target > replicas then (Scale_up, target)
    else if
      target < replicas && idle > 0
      && now_us -. tr.last_scale_us >= cfg.cooldown_us
    then (Scale_down, target)
    else (Hold, target)
  end
