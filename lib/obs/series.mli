(** Windowed time-series: fixed-interval bucketed rings driven by the
    simulation clock.

    Where the {!Obs} registry is cumulative (whole-run counters and
    histograms, read post-mortem), a series is {e online}: samples
    land in the bucket covering their simulation timestamp, the ring
    keeps the most recent [buckets] intervals, and window queries
    ("rate over the last 6 buckets", "windowed p99") answer from the
    live ring while the run is still going — the raw material for the
    alert rules in {!Alert} and the scrape exposition in
    {!Prometheus}.

    Three kinds share one ring layout:

    - {b Rate}: [observe] adds a weight (usually a counter delta) to
      the current bucket; queries report per-second rates.
    - {b Gauge}: [observe] overwrites the bucket's last value; queries
      report the most recent observation.
    - {b Quantile q}: [observe] feeds the bucket's own
      {!Mlv_util.Stats.P2} estimator; window queries report the
      {e worst} (largest) per-bucket estimate in the window — the
      conservative aggregate, since P² states cannot be merged.

    Everything is deterministic: buckets are indexed by
    [floor (now_us / interval_us)], no wall clock is involved, and
    the steady-state record path is allocation-free (the ring, its
    per-bucket accumulators and the P² estimators are allocated once
    at creation; advancing reuses them in place).

    Series live in a process-wide registry keyed like counters
    (canonical [base{k=v,...}] names); {!Obs.reset} clears their data
    (handles stay valid, like counter handles). *)

type kind =
  | Rate  (** per-bucket weight sums, reported as per-second rates *)
  | Gauge  (** last value wins within a bucket *)
  | Quantile of float
      (** per-bucket P² estimate of this quantile, in (0, 1) *)

val kind_name : kind -> string

type t

(** [create ?buckets ~kind ~interval_us name] returns the registered
    series [name], creating it on first use with a ring of [buckets]
    intervals (default 512) of [interval_us] each.
    @raise Invalid_argument if [interval_us <= 0], [buckets < 2], a
    quantile is outside (0, 1), or [name] already exists with a
    different kind, interval or capacity. *)
val create : ?buckets:int -> kind:kind -> interval_us:float -> string -> t

(** [create_labeled ?buckets ~kind ~interval_us name kvs] is the
    labeled variant; the canonical full name follows
    {!Obs.Labels.key}. *)
val create_labeled :
  ?buckets:int ->
  kind:kind ->
  interval_us:float ->
  string ->
  (string * string) list ->
  t

(** [find name] looks a series up by its canonical full name. *)
val find : string -> t option

(** [all ()] lists every registered series sorted by full name. *)
val all : unit -> (string * t) list

val name : t -> string
val base : t -> string
val labels : t -> Obs.Labels.t
val kind : t -> kind
val interval_us : t -> float
val capacity : t -> int

(** [observe t ~now_us v] records a sample into the bucket covering
    [now_us], first retiring buckets older than the ring keeps.
    Samples must arrive in non-decreasing time order (the simulator
    guarantees this); a sample earlier than the current bucket is
    clamped into it.
    @raise Invalid_argument on NaN or infinite [v] or negative
    [now_us]. *)
val observe : t -> now_us:float -> float -> unit

(** [advance t ~now_us] retires buckets up to [now_us] without
    recording — queries at [now_us] then see empty buckets for the
    elapsed idle intervals instead of stale data.  [observe] and the
    window queries advance implicitly. *)
val advance : t -> now_us:float -> unit

(** Total samples ever recorded (survives ring eviction). *)
val total_count : t -> int

(** Sum of all sample values ever recorded (survives ring
    eviction). *)
val total_sum : t -> float

(** [window_count t ~now_us ~buckets] is the number of samples in the
    last [buckets] intervals ending at (and including) the bucket
    covering [now_us]. *)
val window_count : t -> now_us:float -> buckets:int -> int

(** [window_sum t ~now_us ~buckets] is the sample-value sum over the
    window (for a Rate series: the total weight). *)
val window_sum : t -> now_us:float -> buckets:int -> float

(** [window_rate_per_s t ~now_us ~buckets] is
    [window_sum / (buckets * interval)] in events per second. *)
val window_rate_per_s : t -> now_us:float -> buckets:int -> float

(** [window_value t ~now_us ~buckets] is the kind's natural window
    aggregate: per-second rate for Rate, the most recent non-empty
    bucket's last value for Gauge (0 when the whole window is empty),
    and the largest per-bucket P² estimate for Quantile.  This is the
    value alert threshold rules compare. *)
val window_value : t -> now_us:float -> buckets:int -> float

(** [points t] lists the live buckets oldest first as
    [(bucket_start_us, sample_count, value)], where [value] follows
    {!window_value}'s per-kind convention for a single bucket.  Empty
    buckets inside the live span are included (count 0). *)
val points : t -> (float * int * float) list

(** [to_json t] is [{"kind", "interval_us", "buckets", "total_count",
    "total_sum", "points": [{"t", "n", "v"}, ...]}]. *)
val to_json : t -> Obs.Json.t

(** [registry_json ()] renders every registered series keyed by full
    name — the payload behind [mlvsim --series-out]. *)
val registry_json : unit -> Obs.Json.t

(** [render ()] is the human-readable summary behind the hypervisor's
    [series] command. *)
val render : unit -> string

(** [clear t] empties one series' data (registration survives). *)
val clear : t -> unit

(** [remove name] drops one registration by full canonical name
    (base plus rendered labels, {!Obs.Labels.key}); no-op when
    absent.  A later {!create} with the same name starts fresh and
    may use different parameters. *)
val remove : string -> unit

(** [remove_all ()] drops the registrations themselves (tests use
    this to re-create a series with different parameters). *)
val remove_all : unit -> unit
