(** System-level simulation: a workload set played against the
    heterogeneous cluster under a runtime policy (paper §4.4,
    Fig. 12), optionally under an injected fault plan.

    Tasks arrive over time; each selects the smallest accelerator
    instance whose on-chip weight capacity covers its model, asks the
    system controller to deploy it, runs for its modeled inference
    latency, and releases its resources.  One dispatch loop (admission
    gate, batcher, lanes of batches waiting for a replica, replicas)
    serves every run, deterministically given the seed.

    [serving = None] (the default) runs it with the open-loop policy
    of Fig. 12: admit everything, one task per batch, one FIFO lane
    shared by every accelerator, a fresh deployment per task and an
    undeploy on its completion.  A head that cannot be placed blocks
    the tasks behind it (through an outage too) until freed or
    restored capacity lets it in.

    With a {!serving} config the loop serves closed-loop and elastic:
    arrivals pass an SLO admission gate (token-bucket per request
    class; sheds early instead of queueing unboundedly), admitted
    requests coalesce in a dynamic batcher, a weighted
    least-outstanding-requests router spreads batches across warm
    replicas (deployments kept live between batches), each
    accelerator waits in its own lane, and an optional autoscaler
    grows and shrinks each group's replica set from queue depth and
    observed p99 sojourn — consolidating idle multi-piece replicas via
    forced migration when load drops.  Tenant priority alone turns on
    preemption: when a batch from a tenant with positive
    {!Genset.tenant_load.tl_priority} cannot be admitted to the
    fabric, a lower-priority tenant's replica is force-migrated out of
    the way or evicted (its in-flight batch counts as preempted).

    One rejection rule holds for both policies: a request for an
    accelerator that could not deploy even on an empty, healthy
    cluster ({!Mlv_core.Runtime.feasible}) is rejected at once, never
    reclaiming, evicting or stalling a lane; a feasible one refused
    for lack of capacity waits.

    A {!fault_config}'s crash / restore / degrade events fire under
    either policy.  A crash kills every replica with a piece on the
    dead node: each task of its in-flight batch goes back to the front
    of its lane as a retry (rejected once its retry budget is spent),
    unstarted batches go back uncharged, and sticky routes fall back
    to the router.  Degrade programs the ring's per-hop delay.  What
    can never be served is rejected when the run drains, so
    [tasks = completed + rejected + shed + preempted + lost], with
    [lost > 0] only on an accounting bug.

    The wait rule: each service start records the attempt's wait (from
    when it entered its lane); each completion records the task's
    end-to-end wait once (from its arrival to the start of the service
    that completed).

    Every tally a run counts has one owner, the run itself.  The
    registry counters that mirror a result field
    ([sysim.tasks.{arrived,completed,rejected,retried,lost}],
    [sysim.slo_misses],
    [sysim.serving.{batches,shed,scale_up,scale_down,preempted,preemptions}]
    and [sysim.tenant.{completed,shed}{tenant=..}]) are published once,
    as the run ends, so each equals its field; the scaling, preemption
    and loss ones are registered only when non-zero.  Telemetry
    samples the run's tallies, never these counters.

    While {!run} runs, its own simulator is the sim-time source of
    the spans and lifecycle events it emits
    ({!Mlv_obs.Obs.with_sim_clock}); nothing else it builds, and
    nothing after it returns, stamps with that clock. *)

open Mlv_workload

type fault_config = {
  plan : Mlv_cluster.Fault_plan.t;
  max_retries : int;
      (** per-task crash-interruption budget before rejection *)
}

(** [default_faults plan] allows 3 retries per task. *)
val default_faults : Mlv_cluster.Fault_plan.t -> fault_config

(** Closed-loop serving knobs; see the module header. *)
type serving = {
  classes : Mlv_sched.Slo.class_spec list;
      (** admission classes, keyed by model class name ("S"/"M"/"L");
          [[]] admits everything *)
  batch : Mlv_sched.Batcher.config;
  autoscale : Mlv_sched.Autoscaler.config option;
      (** [None] serves statically: one bootstrap replica per group,
          no control loop *)
  tenant_pool : (float * int) option;
      (** [(rate_per_s, burst)] of a weighted fair-share admission pool
          split across [config.tenants] (see
          {!Mlv_sched.Slo.set_tenant_pool}); requires a multi-tenant
          workload.  [None] admits without per-tenant gating. *)
  defrag : Mlv_core.Defrag.config option;
      (** background defragmentation: every
          {!Mlv_core.Defrag.config.interval_us} of simulated time,
          when no group has backlog and the fragmentation index
          crosses the threshold, run a compaction pass over idle
          replicas' deployments.  [None] (the default) never moves
          anything. *)
}

(** [default_serving] admits every class, batches up to 4 requests
    with a 300 µs linger, runs the default autoscaler and never
    defragments.  Preemption is not a serving knob: it follows the
    tenants' priorities (see the module header). *)
val default_serving : serving

(** Streaming telemetry: an optional scrape loop that samples run
    state into {!Mlv_obs.Series} rings every [scrape_interval_us] of
    simulated time and evaluates the alert [rules] against them.

    Every run publishes [sysim.completed.rate], [sysim.rejected.rate],
    [sysim.slo_missed.rate], [sysim.queue_depth],
    [sysim.sojourn_us.p99], [sysim.shed.rate], [sysim.retried.rate],
    [sysim.nodes_down], [sysim.replicas] and the autoscaler-sampled
    [sysim.autoscale.backlog]; multi-tenant runs add
    [sysim.tenant.completed.rate{tenant=..}] and
    [sysim.tenant.slo_missed.rate{tenant=..}] (the burn-rate rule
    inputs).  Scrape ticks only read state, so simulation results are
    bit-identical with telemetry on or off. *)
type telemetry = {
  scrape_interval_us : float;  (** simulated µs between scrapes, > 0 *)
  rules : Mlv_obs.Alert.rule list;
}

(** [default_telemetry] scrapes every 10 ms of simulated time into
    512-bucket rings with no alert rules. *)
val default_telemetry : telemetry

(** The serving front door (requires [config.serving]).  Three
    independently optional pillars:

    - [sessions]: long-lived client sessions keyed by tenant.  Each
      admitted request takes a per-session sequence number and its
      result is delivered in request order (a completion that
      overtakes an earlier request is held and released — and timed —
      when its predecessor resolves).  Batches whose head belongs to a
      session route back to the replica that served the session last
      (sticky routing: warm weights, warm cache) while it is alive.
      Sessions idle past [idle_timeout_us] are reaped on the sim
      clock; sessions with outstanding requests never expire.
    - [mapping_cache]: [(capacity, compile_us)] — an LRU of compiled
      mapping results keyed by {!Mlv_core.Mapdb.shape_signature}.  A
      request whose accelerator shape misses pays [compile_us] of
      decompose/partition/mapping work (amortized across its batch,
      exactly like reconfiguration); a hit skips the pipeline and pays
      only queue and service time.
    - [predict]: forecast-driven autoscaling — a per-group
      Holt-Winters model over the admitted-arrival rate (published as
      [serve.arrivals.rate{accel=..}]) sizes the fleet ahead of
      predicted ramps instead of reacting to backlog watermarks;
      requires [serving.autoscale].

    [config.frontend = None] (and every pillar [None]) is
    bit-identical to a build without the front door. *)
type frontend = {
  sessions : Mlv_serve.Session.config option;
  mapping_cache : (int * float) option;
  predict : Mlv_sched.Autoscaler.predict option;
}

(** Every pillar off. *)
val default_frontend : frontend

type config = {
  policy : Mlv_core.Runtime.policy;
  composition : Genset.composition;
  tasks : int;
  arrival : Genset.arrival;
      (** the task arrival process (e.g. a bursty trace); the default
          is exponential with a 200 µs mean *)
  seed : int;
  repeats_per_task : int;
      (** inferences served per deployment (amortizes reconfiguration,
          as a real serving system would) *)
  slo_multiplier : float;
      (** a task misses its service-level objective when its sojourn
          exceeds this multiple of its unqueued service time (used
          when its class declares no deadline) *)
  cluster_kinds : Mlv_fpga.Device.kind list;
      (** device mix of the simulated cluster *)
  faults : fault_config option;
      (** [None] (the default) runs fault-free and is bit-identical to
          a build without the fault layer *)
  serving : serving option;
      (** [None] (the default) runs the open-loop FIFO policy *)
  tenants : Genset.tenant_load list;
      (** non-empty: the workload is the merged multi-tenant stream of
          {!Genset.generate_tenants} and [tasks] is ignored in favour
          of the per-tenant counts; [[]] (the default) keeps the
          single-stream generators *)
  bitstream_cache : int option;
      (** capacity of a {!Mlv_vital.Bitstream.Cache} installed on the
          runtime: repeat deployments of a cached (accelerator,
          partition, device-kind) bitstream pay the amortized hit cost
          instead of the full transfer.  [None] (the default) keeps
          reconfiguration times bit-identical to cacheless builds. *)
  telemetry : telemetry option;
      (** [None] (the default) schedules no scrape ticks and registers
          no series — runs are bit-identical to pre-telemetry
          builds *)
  frontend : frontend option;
      (** the serving front door; requires [serving].  [None] (the
          default) is bit-identical to pre-front-door builds *)
  replay : Genset.task list option;
      (** play this exact recorded task stream (see
          {!Mlv_serve.Trace_file}) instead of generating one;
          overrides [composition] / [tasks] / [arrival] / [tenants]
          task generation *)
}

(** [default_config ~policy ~composition] gives 120 tasks, 200 µs
    mean inter-arrival, 20 inferences per deployment, seed 42, the
    paper's device mix and no faults. *)
val default_config :
  policy:Mlv_core.Runtime.policy -> composition:Genset.composition -> config

(** One tenant's slice of a multi-tenant run's accounting.  The
    identity
    [tn_arrived = tn_completed + tn_shed + tn_rejected + tn_preempted_lost]
    holds per tenant exactly as the global identity does. *)
type tenant_stats = {
  tn_name : string;
  tn_arrived : int;
  tn_admitted : int;  (** passed the admission gate (all, open loop) *)
  tn_shed : int;
  tn_completed : int;
  tn_rejected : int;
  tn_preempted_lost : int;
      (** tasks lost mid-service when a higher-priority tenant
          preempted the replica serving them *)
  tn_slo_misses : int;
  tn_goodput_per_s : float;
      (** SLO-meeting completions / the run's makespan *)
  tn_p99_latency_us : float;
}

type result = {
  completed : int;
  retried : int;  (** crash interruptions that re-queued a task *)
  rejected : int;
      (** tasks given up on: never-deployable head, retry budget
          exhausted, or unservable when the run drained *)
  shed : int;
      (** requests the admission gate refused at arrival (0 in the
          open loop, which admits everything) *)
  lost : int;
      (** [tasks - completed - rejected - shed - preempted]; 0 unless
          buggy *)
  makespan_us : float;
  throughput_per_s : float;  (** completed tasks / makespan *)
  goodput_per_s : float;
      (** completions that met their SLO deadline / makespan *)
  fault_downtime_us : float;
      (** total time with at least one node down, from the fault
          plan's {!Mlv_cluster.Fault_plan.outages} up to the last
          event *)
  fault_free_throughput_per_s : float;
      (** completions outside outage windows over makespan minus
          overlapping downtime; equals [throughput_per_s] when no
          outage occurred *)
  mean_latency_us : float;  (** arrival to completion *)
  mean_wait_us : float;
      (** arrival to the start of the service that completed, {e end
          to end}, one per completion: a crash retry accumulates every
          round of queueing into one wait *)
  wait_attempts : int;  (** service starts (attempts that left a lane) *)
  mean_wait_per_attempt_us : float;
      (** queue wait of each attempt, measured from when the task
          (re-)entered its lane *)
  mean_service_us : float;
  p50_latency_us : float;
  p95_latency_us : float;
  p99_latency_us : float;
      (** sojourn percentiles, exact over [latencies_us]; the obs
          histogram [sysim.task_sojourn_us] tracks the same series to
          bucket resolution *)
  peak_queue : int;
  latencies_us : float list;  (** per task, completion order *)
  slo_misses : int;
  batches : int;  (** batches dispatched (one per task in the open loop) *)
  scale_ups : int;
      (** replicas added, bootstrap included (one per deploy in the
          open loop) *)
  scale_downs : int;  (** serving mode: replicas retired by the loop *)
  preempted : int;
      (** serving mode: tasks lost mid-service to priority preemption
          (their batch was cancelled; they never complete).  The
          global identity becomes
          [tasks = completed + rejected + shed + preempted + lost]. *)
  preemptions : int;  (** serving mode: replicas evicted by preemption *)
  defrag_moves : int;
      (** serving mode: deployments moved by the background
          defragmenter *)
  cache_hits : int;
      (** bitstream staging-cache hits across the run (0 without
          [config.bitstream_cache]) *)
  cache_misses : int;
  sessions_opened : int;
      (** front door: sessions opened (0 without [frontend.sessions]) *)
  sessions_expired : int;  (** sessions reaped by idle expiry *)
  sticky_hits : int;
      (** batches routed to a session's still-live sticky replica *)
  sticky_misses : int;
      (** sticky route absent or dead; the router picked instead *)
  held_results : int;
      (** completions buffered for per-session in-order release *)
  mapcache_hits : int;
      (** compiled-mapping cache hits (0 without
          [frontend.mapping_cache]) *)
  mapcache_misses : int;
  mapcache_evictions : int;
  per_tenant : tenant_stats list;
      (** one entry per [config.tenants] element, declaration order;
          [[]] on single-tenant runs *)
  scrapes : int;
      (** telemetry scrape ticks executed; 0 without
          [config.telemetry] *)
  alert_transitions : Mlv_obs.Alert.transition list;
      (** every alert state transition, oldest first; [[]] without
          [config.telemetry] *)
  loop_wall_s : float;
      (** wall-clock seconds spent inside the event loop proper —
          excludes cluster construction, workload generation and
          result post-processing.  The serving-loop throughput metric
          of bench/scale.ml.  Nondeterministic: exclude it from
          bit-identity comparisons. *)
}

(** The accelerator instances compiled into the mapping database —
    ten tile counts, as in the paper's evaluation (§4.3). *)
val instance_tile_counts : int list

(** A mapping database and the service model's memos of modeled
    service times and scale-out plans.  Runs that share a registry
    share that work; nothing else in the process does. *)
type registry

(** [build_registry ()] compiles every instance into one mapping
    database (expensive; share the result across runs). *)
val build_registry : unit -> registry

(** [of_mapdb db] is a registry of [db] with empty memos. *)
val of_mapdb : Mlv_core.Mapdb.t -> registry

val mapdb : registry -> Mlv_core.Mapdb.t

(** [service_latency_us registry ~policy ~added_latency_us point d]
    is the modeled time, in µs, of one inference of [point] on [d],
    memoized in [registry] by exactly the inputs the model reads. *)
val service_latency_us :
  registry ->
  policy:Mlv_core.Runtime.policy ->
  added_latency_us:float ->
  Deepbench.point ->
  Mlv_core.Runtime.deployment ->
  float

(** [instance_within ~need ~cap candidates] picks the smallest
    candidate covering [need] within [cap]; an oversized demand falls
    back to the largest candidate within the cap (overflow streams
    from DRAM), and [None] when the cap admits nothing.  [candidates]
    must be sorted ascending. *)
val instance_within : need:int -> cap:int -> int list -> int option

(** [instance_for ~policy point] selects the registry instance a task
    of this benchmark point requests.
    @raise Invalid_argument when no instance fits the policy's cap. *)
val instance_for : policy:Mlv_core.Runtime.policy -> Deepbench.point -> int

(** [scale_out_shape ~hidden ~nodes ~tiles] is the (parts, per-part
    tiles) sizing of a scale-out deployment: [parts] is clamped to 2
    when it does not divide [hidden] (slice layout), and the per-part
    config is sized for the clamped count. *)
val scale_out_shape : hidden:int -> nodes:int -> tiles:int -> int * int

(** [workload config] is the exact task stream {!run} will play for
    this config (the replay, the merged multi-tenant stream, or the
    single-stream generation).  Recording it with
    {!Mlv_serve.Trace_file} and replaying via [config.replay] is
    bit-identical to letting {!run} generate it. *)
val workload : config -> Genset.task list

(** [run ~registry config] plays the workload to completion against
    the accelerators of the mapping database [registry].
    @raise Invalid_argument on [config.frontend] without
    [config.serving], [frontend.predict] without [serving.autoscale],
    [serving.tenant_pool] without [config.tenants], or a fault plan
    naming a node outside the cluster. *)
val run : registry:registry -> config -> result
