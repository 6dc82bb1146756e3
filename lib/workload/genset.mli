(** Synthetic workload sets (paper §4.1, Table 1).

    Each set is a sequence of GRU/LSTM inference tasks arriving at
    random intervals; the composition controls the S/M/L mix.  All
    randomness flows through a caller-provided seeded generator so
    every experiment is reproducible. *)

type composition = { s : float; m : float; l : float }

(** The ten compositions of Table 1, index 0 = set 1. *)
val table1 : composition array

(** [composition_name c] e.g. ["50%S+50%L"]. *)
val composition_name : composition -> string

type task = {
  task_id : int;
  point : Deepbench.point;
  model_class : Sizes.model_class;
  arrival_us : float;  (** absolute arrival time *)
  tenant : string;
      (** ["-"] from the single-stream generators; {!generate_tenants}
          stamps real tenant names *)
}

(** Arrival processes.  [Exponential] is a Poisson stream.  [Bursty]
    alternates a busy phase of [on_us] (exponential inter-arrivals
    with mean [on_mean_us]) and a quiet phase of [off_us] (mean
    [off_mean_us]), cycling from time 0 — the open/closed-loop stress
    pattern used by the serving-layer experiments.  The phase is
    chosen by the arrival clock at each draw, so the process stays
    deterministic for a given seed.

    [Bursty] reads the phase once per draw, so a single quiet-phase
    draw with [off_mean_us] larger than the cycle can leap across
    entire busy windows and the busy rate silently collapses; it is
    kept draw-identical for the benches pinned to its stream.
    [Bursty_phased] takes the same parameters but clamps every draw
    at the next phase boundary and re-draws from the boundary with
    the new phase's mean (the exact piecewise-Poisson construction)
    — prefer it for new traces.

    [Diurnal] models a day-night load curve with an optional
    recurring flash crowd: the arrival rate follows a sinusoid from
    [1/trough_mean_us] (phase 0) up to [1/peak_mean_us] (half
    period) and back, sampled piecewise-constant over 32 slots per
    period; when [flash_us > 0], the window
    [[flash_start_us, flash_start_us + flash_us)] of every period
    overrides the sinusoid with the (typically much hotter)
    [flash_mean_us] stream.  Draws use the same boundary-clamped
    construction as [Bursty_phased], so each segment is exactly
    Poisson at its own rate — the trace generator behind the
    predictive-autoscaling bench. *)
type arrival =
  | Exponential of { mean_us : float }
  | Bursty of {
      on_us : float;  (** busy-phase length *)
      off_us : float;  (** quiet-phase length *)
      on_mean_us : float;  (** mean inter-arrival while busy *)
      off_mean_us : float;  (** mean inter-arrival while quiet *)
    }
  | Bursty_phased of {
      on_us : float;
      off_us : float;
      on_mean_us : float;
      off_mean_us : float;
    }
  | Diurnal of {
      period_us : float;  (** full day-night cycle length *)
      trough_mean_us : float;  (** mean inter-arrival at the quietest point *)
      peak_mean_us : float;  (** mean inter-arrival at the busiest point *)
      flash_start_us : float;  (** flash-window phase offset *)
      flash_us : float;  (** flash-window length; 0 disables it *)
      flash_mean_us : float;  (** mean inter-arrival inside the window *)
    }

(** [arrival_name a] e.g. ["burst(2000/8000us @ 50/2000us)"]. *)
val arrival_name : arrival -> string

(** [generate_arrival ~rng ~composition ~tasks ~arrival] draws [tasks]
    tasks under the given arrival process.  With
    [Exponential {mean_us}] the draw sequence is identical to
    {!generate}.
    @raise Invalid_argument if the composition does not sum to ~1,
    [tasks <= 0], or the arrival parameters are non-positive. *)
val generate_arrival :
  rng:Mlv_util.Rng.t ->
  composition:composition ->
  tasks:int ->
  arrival:arrival ->
  task list

(** [generate ~rng ~composition ~tasks ~mean_interarrival_us] draws
    [tasks] tasks with exponential inter-arrival times.
    @raise Invalid_argument if the composition does not sum to ~1 or
    [tasks <= 0]. *)
val generate :
  rng:Mlv_util.Rng.t ->
  composition:composition ->
  tasks:int ->
  mean_interarrival_us:float ->
  task list

(** One tenant's slice of a multi-tenant workload. *)
type tenant_load = {
  tl_name : string;
  tl_weight : float;  (** fair-share weight (feeds the SLO pool) *)
  tl_tasks : int;
  tl_arrival : arrival;
  tl_priority : int;
      (** scheduling priority; higher preempts lower (0 = best
          effort).  In the serving loop a batch carrying a positive
          priority may evict lower-priority replicas; a workload
          without one never preempts. *)
  tl_composition : composition option;
      (** overrides the run's composition for this tenant's stream;
          [None] (the default) inherits it, leaving the draw sequence
          bit-identical to the pre-override generator *)
}

(** [tenant_load name ~tasks ~arrival] with weight 1, priority 0 and
    the inherited composition.
    @raise Invalid_argument on non-positive weight/tasks or bad
    arrival parameters. *)
val tenant_load :
  ?weight:float ->
  ?priority:int ->
  ?composition:composition ->
  tasks:int ->
  arrival:arrival ->
  string ->
  tenant_load

(** [generate_tenants ~seed ~composition loads] draws each tenant's
    stream from its own split of [seed] (one tenant's parameters never
    perturb another's arrivals), merges them by arrival time and
    renumbers task ids in merged order.
    @raise Invalid_argument on an empty or duplicate-name tenant
    list. *)
val generate_tenants :
  seed:int -> composition:composition -> tenant_load list -> task list

(** [class_histogram tasks] counts tasks per class. *)
val class_histogram : task list -> (Sizes.model_class * int) list
