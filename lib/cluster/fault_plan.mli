(** Scheduled fault injection for the cluster substrate.

    A fault plan is a time-ordered list of events — node crashes,
    node restores and ring-link degradation — injected into a run as
    ordinary discrete-event-simulator events.  The plan itself is
    pure data: {!schedule} turns it into {!Sim} events that call
    layer-specific callbacks (the runtime marks nodes failed, the
    system simulation re-queues in-flight work, the network programs
    its delay module), so the same plan drives the hypervisor's
    [inject] command, [mlvsim --fault-plan] and the availability
    benchmark.

    The textual format (CLI flags, hypervisor commands) is a
    comma-separated event list:

    {v
      crash@<time_us>:<node>      node goes down
      restore@<time_us>:<node>    node returns to service
      degrade@<time_us>:<added_latency_us>
                                  program the ring's per-hop delay
    v}

    e.g. ["crash@8000:1,restore@20000:1,degrade@12000:0.6"].  Each
    applied event increments the counter [fault.crash] /
    [fault.restore] / [fault.degrade] and, when lifecycle tracing is
    enabled, records an {!Mlv_obs.Obs.Trace.mark} on the affected
    node's timeline track. *)

type action =
  | Crash of int  (** node id *)
  | Restore of int  (** node id *)
  | Degrade of float  (** ring added latency, µs per hop *)

type event = { at : float; action : action }

type t

(** [make events] sorts the events by time (stable on ties).
    @raise Invalid_argument on negative times, negative node ids or
    negative latencies. *)
val make : event list -> t

val empty : t

(** [events t] lists the events in firing order. *)
val events : t -> event list

val is_empty : t -> bool
val length : t -> int

(** [of_string s] parses the textual format above.  The empty string
    is the empty plan. *)
val of_string : string -> (t, string) result

(** [to_string t] round-trips through {!of_string}. *)
val to_string : t -> string

(** [validate t ~nodes] checks every crash/restore targets a node in
    [0, nodes); [Error] names the first offender. *)
val validate : t -> nodes:int -> (unit, string) result

(** [schedule t sim ~on_crash ~on_restore ~on_degrade] registers
    every event with the simulator.  Callbacks run at the event's
    time, after any same-time events scheduled earlier (the
    simulator's queue is FIFO on ties). *)
val schedule :
  t ->
  Sim.t ->
  on_crash:(int -> unit) ->
  on_restore:(int -> unit) ->
  on_degrade:(float -> unit) ->
  unit

(** [outages t ~until] lists, in chronological order, the [(start,
    stop)] windows in [\[0, until\]] during which at least one node is
    down according to the plan alone: a crash of the first node opens
    a window, the restore of the last down node closes it, and a
    window still open at [until] closes there.  Events after [until]
    are ignored. *)
val outages : t -> until:float -> (float * float) list

(** [downtime_us t ~until] is the total length of {!outages}. *)
val downtime_us : t -> until:float -> float
