(** Declarative alerting over {!Series} rings.

    Rules are evaluated at each scrape tick against the live windowed
    series and walk a Prometheus-style state machine:

    {v inactive -> pending -> firing -> inactive (resolved) v}

    A rule whose condition holds enters [pending]; after holding for
    [for_intervals] consecutive evaluations it transitions to
    [firing]; the first evaluation where it no longer holds resolves
    it back to [inactive] and starts a cooldown of
    [cooldown_intervals] evaluations during which it cannot re-enter
    [pending] (hysteresis against flapping).  A pending rule whose
    condition lapses returns to [inactive] silently.

    Two condition forms:

    - {b Threshold}: compare a series' {!Series.window_value} over a
      bucket window against a constant.
    - {b Burn_rate}: the Google-SRE multi-window burn-rate test over
      an SLO error budget.  With error ratio [E(w) = bad(w)/total(w)]
      over window [w] and budget [1 - objective], the burn rate is
      [E(w) / (1 - objective)]; the rule's condition holds when
      {e both} the long and the short window burn at [>= factor]
      (the short window makes detection fast, the long window stops a
      momentary blip from firing).

    Every state transition is appended to the engine's transition log,
    counted under [alert.transitions{rule=..,event=..}], and emitted
    as an {!Obs.Trace.mark} (so firings land on the Perfetto timeline
    next to the fault injections that caused them).  Evaluation is
    driven purely by the simulation clock — fully deterministic. *)

type cmp = Gt | Lt

type condition =
  | Threshold of {
      series : string;  (** full canonical series name *)
      window : int;  (** buckets, >= 1 *)
      cmp : cmp;
      threshold : float;
    }
  | Burn_rate of {
      bad : string;  (** Rate series of SLO-violating events *)
      total : string;  (** Rate series of all events *)
      objective : float;  (** SLO target in (0, 1), e.g. 0.99 *)
      factor : float;  (** minimum burn rate, > 0 *)
      long_window : int;  (** buckets, >= 1 *)
      short_window : int;  (** buckets, >= 1 *)
    }

type rule = {
  name : string;
      (** nonempty; no whitespace, [;], braces, [=], [,] or quotes —
          rule names double as label values *)
  condition : condition;
  for_intervals : int;
      (** consecutive true evaluations before firing; [1] fires on the
          first *)
  cooldown_intervals : int;
      (** evaluations after resolve during which the rule stays
          inactive; [0] disables hysteresis *)
}

(** {2 Rule grammar}

    One rule per [;]-separated clause, fields whitespace-separated:

    {v
NAME gt|lt SERIES THRESHOLD WINDOW FOR COOLDOWN
NAME burn BAD_SERIES TOTAL_SERIES OBJECTIVE FACTOR LONG SHORT FOR COOLDOWN
    v}

    e.g. [outage gt sysim.nodes_down 0 1 1 0] or
    [slo-burn burn sysim.slo_missed.rate sysim.completed.rate 0.99 2 12 3 1 6]. *)

(** [of_string s] parses a [;]-separated rule list; [Error msg] names
    the offending clause. *)
val of_string : string -> (rule list, string) result

(** [rule_to_string r] renders one rule in the grammar above;
    [of_string (rule_to_string r)] round-trips. *)
val rule_to_string : rule -> string

(** [to_string rules] joins {!rule_to_string} with ["; "]. *)
val to_string : rule list -> string

type state = Inactive | Pending | Firing

val state_name : state -> string

(** Transition events; [Resolve] is the firing -> inactive edge. *)
type event = Pend | Fire | Resolve

val event_name : event -> string

type transition = {
  rule_name : string;
  event : event;
  at_us : float;  (** simulation time of the evaluation *)
  value : float;  (** condition value at the transition (threshold
                      value or long-window burn rate) *)
}

type t

(** [create rules] builds an engine; rules are validated and
    evaluated in list order.
    @raise Invalid_argument on a malformed rule (bad name, windows
    < 1, objective outside (0,1), non-positive factor, non-finite
    threshold, [for_intervals < 1] or negative cooldown) or a
    duplicate rule name. *)
val create : rule list -> t

(** [add_rule t r] appends one rule (validated; duplicate names
    rejected), starting inactive. *)
val add_rule : t -> rule -> unit

val rules : t -> rule list

(** [eval t ~now_us] evaluates every rule once against the series
    registry at simulation time [now_us] and performs state
    transitions.  A rule whose series do not (yet) exist evaluates as
    false.  Call once per scrape interval. *)
val eval : t -> now_us:float -> unit

(** [transitions t] is the full transition log, oldest first. *)
val transitions : t -> transition list

(** [firing t] is the currently-firing rule names, in rule order. *)
val firing : t -> string list

val rule_state : t -> string -> state option

(** [to_json t] is [{"rules": [{"name","spec","state","pending",
    "cooldown"}...], "transitions": [...]}]. *)
val to_json : t -> Obs.Json.t

(** [render t] is the human-readable summary behind the hypervisor's
    [alerts] command. *)
val render : t -> string
