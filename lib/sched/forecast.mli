(** Additive Holt-Winters forecasting for the predictive autoscaler.

    A model of a periodic signal sampled at a fixed cadence: a level,
    a trend and one additive seasonal component per slot of the
    [period].  {!observe} feeds one sample per tick; {!forecast}
    extrapolates a few ticks ahead.  [beta = 0] disables the trend
    (seasonal EWMA); [gamma = 0] or [period = 1] disables
    seasonality.

    Deterministic and allocation-free after {!create}; the predictive
    serving loop calls it once per control tick. *)

type t

(** [create ?alpha ?beta ?gamma ~period ()] — smoothing factors for
    level (default 0.5), trend (0.1) and season (0.3); [period] is
    the season length in ticks.
    @raise Invalid_argument when a factor is outside [0, 1] or
    [period < 1]. *)
val create : ?alpha:float -> ?beta:float -> ?gamma:float -> period:int -> unit -> t

val period : t -> int

(** Samples fed so far.  The model warms up over its first period
    (level EWMA, seasonal residual seeding, no trend); callers gate
    cold-model decisions on this. *)
val observations : t -> int

val level : t -> float

(** [observe t v] feeds the next sample (one per tick, in order).
    @raise Invalid_argument on NaN or infinite [v]. *)
val observe : t -> float -> unit

(** [forecast t ~ahead] extrapolates [ahead >= 1] ticks past the last
    observation (the next tick is 1 ahead); 0 before any sample.  May
    go negative on a falling trend — clamp at the caller.
    @raise Invalid_argument when [ahead < 1]. *)
val forecast : t -> ahead:int -> float
