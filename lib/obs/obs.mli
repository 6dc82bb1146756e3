(** Structured observability for the virtualization stack.

    One process-wide registry of named monotonic {!Counter}s,
    log-scale latency {!Histogram}s (p50/p90/p99 estimates) and
    nested {!Span}s carrying both wall-clock and simulation time.
    The runtime layers (decompose, partition, mapping, deploy,
    reconfiguration, failover, the discrete-event simulator) record
    into it; the hypervisor's [metrics] / [trace] commands, the
    [mlvsim --metrics-out] flag and the bench harness export it as
    JSON or human-readable text.

    The registry is global and deterministic in structure (names and
    counts); wall-clock durations naturally vary run to run.  All
    operations are cheap enough for simulator hot paths: counters are
    a single int increment behind a cached handle, histogram
    observation is one hash-table bump. *)

(** Minimal JSON tree: exporters build values, [to_string] renders
    them, [is_valid] checks a rendered string parses back (used by
    tests and CI on emitted metric files). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float  (** non-finite floats render as [null] *)
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** [is_valid s] is true when [s] is one complete JSON value:
      [parse s <> None]. *)
  val is_valid : string -> bool

  (** [parse s] reads one complete JSON value back; [None] on
      malformed input.  Numbers without a fraction or exponent that
      fit in [int] parse as [Int], everything else as [Float] — the
      regression-diff harness reads committed BENCH_*.json artifacts
      through this. *)
  val parse : string -> t option
end

(** Canonical label sets for dimensioned metrics.  A labeled series is
    keyed by its base name plus the sorted rendered label set, e.g.
    [sysim.task_sojourn_us{kind=XCVU37P,node=3}], so the same labels
    in any order name the same series and every export is
    deterministic. *)
module Labels : sig
  type t = (string * string) list

  (** [make kvs] sorts by key.
      @raise Invalid_argument on duplicate keys, empty keys, or keys /
      values containing braces, [=], [,], double quotes or a
      newline. *)
  val make : (string * string) list -> t

  (** [render t] is [""] for no labels, else ["{k=v,k2=v2}"].  Apply
      to {!make}'s output for the canonical form. *)
  val render : t -> string

  (** [key base kvs] is the canonical full series name. *)
  val key : string -> (string * string) list -> string
end

(** Named monotonic counters. *)
module Counter : sig
  type t

  (** [get name] returns the process-wide counter [name], creating it
      at zero on first use.  Handles stay valid across {!reset}. *)
  val get : string -> t

  (** [get_labeled name kvs] returns the series of family [name] with
      the canonicalized label set [kvs] (see {!Labels.make} for the
      raised errors).  Label order does not matter. *)
  val get_labeled : string -> (string * string) list -> t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int

  (** [name t] is the full canonical name (base plus rendered
      labels); [base t] and [labels t] are its components. *)
  val name : t -> string

  val base : t -> string
  val labels : t -> Labels.t
end

(** Log-scale histograms: ten buckets per decade (~12% relative
    resolution), plus an exact streaming count/sum/min/max. *)
module Histogram : sig
  type t

  (** [get name] returns the process-wide histogram [name], creating
      it empty on first use.  Handles stay valid across {!reset}. *)
  val get : string -> t

  (** [get_labeled name kvs] is the labeled series of family [name];
      see {!Counter.get_labeled}. *)
  val get_labeled : string -> (string * string) list -> t

  (** [detached ()] is a private histogram outside the process-wide
      registry: invisible to [dump]/[snapshot], untouched by {!reset},
      and never shared between callers.  Control loops use these so
      their decisions depend only on samples from their own run. *)
  val detached : ?name:string -> unit -> t

  (** [observe t v] records a sample.
      @raise Invalid_argument on NaN or infinite samples. *)
  val observe : t -> float -> unit

  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val sum : t -> float

  (** [percentile t p] estimates the [p]-th percentile from the log
      buckets (exact to bucket resolution, clamped to the observed
      min/max); 0 when empty, the sample itself on a single-sample
      histogram.  It scans only the occupied bucket range, so its
      cost follows the spread of the samples, not the 601 slots.
      @raise Invalid_argument if [p] is NaN or outside [0, 100]. *)
  val percentile : t -> float -> float

  (** [clear t] empties [t] in place, touching only the occupied
      bucket range and allocating nothing: afterwards [t] reads as a
      fresh {!detached} histogram (count, sum, min, max and every
      percentile).  Handles to [t] stay valid; {!reset} clears every
      registry histogram this way. *)
  val clear : t -> unit

  (** [name t] is the full canonical name; [base t] / [labels t] its
      components. *)
  val name : t -> string

  val base : t -> string
  val labels : t -> Labels.t
end

(** [wall_us ()] is the wall clock in µs since the Unix epoch — the
    clock spans are stamped with, exposed so engine code can time its
    own phases consistently with the span timeline. *)
val wall_us : unit -> float

(** A completed span, oldest first in {!spans}. *)
type span_record = {
  id : int;
  parent : int option;  (** id of the enclosing span, if any *)
  name : string;
  depth : int;  (** 0 for root spans *)
  start_wall_us : float;  (** wall-clock µs since the Unix epoch *)
  wall_us : float;  (** wall-clock duration *)
  start_sim_us : float;  (** bound sim clock at entry (0 if none) *)
  sim_us : float;  (** sim-clock duration (0 if no sim clock) *)
  args : (string * string) list;  (** annotations added while open *)
}

(** Nested timing spans.  Entering while another span is open makes
    the new span its child.  Each exit also feeds the histogram
    [span.<name>.wall_us]. *)
module Span : sig
  type t

  val enter : string -> t

  (** [exit t] closes the span (idempotent) and records it. *)
  val exit : t -> unit

  (** [add_arg t k v] annotates a still-open span (e.g. the deployment
      id a [deploy] span produced); no-op after exit. *)
  val add_arg : t -> string -> string -> unit

  (** [with_ name f] runs [f] inside a span, closing it on any
      exit including exceptions. *)
  val with_ : string -> (unit -> 'a) -> 'a

  (** [with_span name f] is {!with_} but passes the open span to [f]
      so it can {!add_arg}. *)
  val with_span : string -> (t -> 'a) -> 'a
end

(** Per-task lifecycle tracing and the Chrome/Perfetto exporter.

    Every system-simulation task emits an event stream
    (arrive → queue → deploy → service → complete / reject / retry /
    crash-interrupt) stamped with the simulation clock, the node,
    deployment id and retry count; fault injections add cluster-level
    {!Trace.mark}s.  Events land in a bounded ring; per-phase totals
    keep counting when the ring overflows, so accounting stays closed
    against the task counters even when old events are dropped.

    Tracing is {b off by default}: emission behind [set_enabled false]
    is a single flag test ([mlvsim --trace-out] and the bench trace
    experiments switch it on).  The test sits inside {!task}, after
    the caller has boxed its optional arguments, so a per-task call
    site on a hot path guards the call itself:
    [if Trace.enabled () then Trace.task ...] costs nothing with
    tracing off. *)
module Trace : sig
  type phase =
    | Arrive
    | Queue
    | Deploy
    | Service
    | Complete
    | Reject
    | Retry
    | Crash_interrupt
    | Mark  (** cluster-level annotation, e.g. a fault injection *)
    | Shed  (** turned away by the serving admission gate *)

  val phase_name : phase -> string

  type event = {
    seq : int;  (** emission order, monotonically increasing *)
    phase : phase;
    task : int option;
    label : string;  (** accelerator name, fault description, ... *)
    at_sim_us : float;  (** bound sim clock at emission (0 if none) *)
    node : int option;
    deployment : int option;
    retries : int;
  }

  val set_enabled : bool -> unit
  val enabled : unit -> bool

  (** [task phase id] records a lifecycle event for task [id]; no-op
      while disabled. *)
  val task :
    ?node:int -> ?deployment:int -> ?retries:int -> ?label:string -> phase -> int -> unit

  (** [mark label] records a cluster-level instant (fault injections
      tag themselves with these); no-op while disabled. *)
  val mark : ?node:int -> string -> unit

  (** [events ()] lists retained events, oldest first (bounded ring;
      see {!dropped}). *)
  val events : unit -> event list

  (** [count phase] is the number of events of [phase] ever emitted
      since the last reset — drops included. *)
  val count : phase -> int

  val recorded : unit -> int

  (** [dropped ()] counts events the ring has forgotten. *)
  val dropped : unit -> int

  (** [to_chrome_json ()] renders spans and lifecycle events as a
      Chrome trace-event document ([{"traceEvents": [...], ...}])
      loadable in Perfetto / [chrome://tracing]: spans as complete
      events on a wall-clock track, lifecycle events as instants on
      one track per node and one per deployment (sim clock).  Drop
      counts and per-phase totals are reported in ["otherData"] —
      a truncated timeline is always visible as such. *)
  val to_chrome_json : unit -> Json.t

  (** [write_chrome_json path] writes {!to_chrome_json} to [path]. *)
  val write_chrome_json : string -> unit
end

(** [with_sim_clock clock f] runs [f ()] with [clock] as the source
    of simulation time for spans and lifecycle events, and restores
    the previous source when [f] returns or raises.  Whoever drives a
    simulator binds its clock (a system-simulation run, a hypervisor
    command); creating a simulator binds nothing.  Outside every
    binding, sim time reads 0. *)
val with_sim_clock : (unit -> float) -> (unit -> 'a) -> 'a

(** Registry inspection (sorted by name). *)
val counters : unit -> (string * int) list

(** [counter_handles ()] lists counter handles (the exposition
    renderer needs base and labels separately). *)
val counter_handles : unit -> (string * Counter.t) list

val histograms : unit -> (string * Histogram.t) list

(** [counters_with_base base] lists every series of the metric family
    [base] — labeled or not — as (full name, labels, value), sorted
    by full name.  [histograms_with_base] likewise. *)
val counters_with_base : string -> (string * Labels.t * int) list

val histograms_with_base : string -> (string * Labels.t * Histogram.t) list

(** [spans ()] lists retained completed spans, oldest first (bounded
    ring; see {!dropped_spans}). *)
val spans : unit -> span_record list

(** [spans_matching sub] filters {!spans} by substring of the name. *)
val spans_matching : string -> span_record list

val dropped_spans : unit -> int

(** [reset ()] zeroes every counter, empties every histogram, drops
    all span records (the span drop count returns to 0) and clears
    the lifecycle-trace ring and its per-phase totals.  Existing
    handles stay valid; the tracing-enabled flag is not touched. *)
val reset : unit -> unit

(** [on_reset f] registers [f] to run at the end of every {!reset}.
    Layered metric stores (the windowed time-series registry in
    {!Series}) clear themselves through this without creating a
    dependency cycle.  Hooks cannot be unregistered; register once
    per store, at module initialization. *)
val on_reset : (unit -> unit) -> unit

(** [to_json ()] renders the whole registry; schema documented in
    DESIGN.md §Observability. *)
val to_json : unit -> Json.t

val json_string : unit -> string

(** [write_json path] writes {!json_string} to [path]. *)
val write_json : string -> unit

(** [render ()] is the human-readable multi-line summary behind the
    hypervisor's [metrics] command. *)
val render : unit -> string

val pp : Format.formatter -> unit -> unit
