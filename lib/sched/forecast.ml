(* Additive Holt-Winters (triple exponential smoothing) over a
   fixed-period seasonal signal.

   The predictive autoscaler feeds one observation per control tick
   (the arrival rate the telemetry series reported for that tick) and
   asks for the rate a few ticks ahead.  The model keeps a level, a
   trend and one additive seasonal component per tick-of-period slot;
   with [beta = 0] it degenerates to the seasonal EWMA, with
   [gamma = 0] (or [period = 1]) to plain double smoothing.

   Bootstrap: the first observation seeds the level; during the first
   full period the level follows an [alpha]-EWMA and each slot's
   seasonal component is initialized to the residual of its first
   sample, so forecasts are usable (if crude) before a whole season
   has been seen.  Callers that must not act on a cold model check
   {!observations}. *)

type t = {
  alpha : float;
  beta : float;
  gamma : float;
  period : int;
  season : float array;
  mutable level : float;
  mutable trend : float;
  mutable n : int;  (* observations so far *)
}

let create ?(alpha = 0.5) ?(beta = 0.1) ?(gamma = 0.3) ~period () =
  let check name v =
    if not (v >= 0.0 && v <= 1.0) then
      invalid_arg (Printf.sprintf "Forecast.create: %s must be in [0, 1]" name)
  in
  check "alpha" alpha;
  check "beta" beta;
  check "gamma" gamma;
  if period < 1 then invalid_arg "Forecast.create: period must be >= 1";
  {
    alpha;
    beta;
    gamma;
    period;
    season = Array.make period 0.0;
    level = 0.0;
    trend = 0.0;
    n = 0;
  }

let period t = t.period
let observations t = t.n
let level t = t.level

let observe t v =
  if not (Float.is_finite v) then invalid_arg "Forecast.observe: non-finite";
  let i = t.n mod t.period in
  if t.n = 0 then t.level <- v
  else if t.n < t.period then begin
    (* Warm-up: level tracks an EWMA, the slot's first residual seeds
       its seasonal component.  No trend yet — one noisy early slope
       estimate would be amplified by every forecast horizon. *)
    t.level <- (t.alpha *. v) +. ((1.0 -. t.alpha) *. t.level);
    t.season.(i) <- v -. t.level
  end
  else begin
    let s = t.season.(i) in
    let prev_level = t.level in
    t.level <-
      (t.alpha *. (v -. s)) +. ((1.0 -. t.alpha) *. (t.level +. t.trend));
    t.trend <-
      (t.beta *. (t.level -. prev_level)) +. ((1.0 -. t.beta) *. t.trend);
    t.season.(i) <- (t.gamma *. (v -. t.level)) +. ((1.0 -. t.gamma) *. s)
  end;
  t.n <- t.n + 1

(* Forecast [ahead] steps past the last observation: the next sample
   to arrive is 1 ahead and lands in slot [n mod period]. *)
let forecast t ~ahead =
  if ahead < 1 then invalid_arg "Forecast.forecast: ahead must be >= 1";
  if t.n = 0 then 0.0
  else
    t.level
    +. (float_of_int ahead *. t.trend)
    +. t.season.((t.n + ahead - 1) mod t.period)
