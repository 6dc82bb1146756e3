(** System-level simulation: a workload set played against the
    heterogeneous cluster under a runtime policy (paper §4.4,
    Fig. 12), optionally under an injected fault plan.

    Tasks arrive over time; each selects the smallest accelerator
    instance whose on-chip weight capacity covers its model, asks the
    system controller to deploy it, runs for its modeled inference
    latency, and releases its resources.  Tasks that cannot be placed
    queue FIFO; a head that could never deploy even on an empty,
    healthy cluster is rejected rather than stalling the queue.
    Everything is deterministic given the seed.

    With a {!fault_config}, the plan's crash / restore / degrade
    events fire as simulator events: a crash interrupts every
    in-service task with a piece on the dead node (partial progress
    lost, the task re-queues at the front and counts as retried —
    until its retry budget is spent, after which it is rejected);
    a restore returns capacity; degrade programs the ring's per-hop
    delay, which feeds the scale-out service model.  The result's
    availability fields account for every task:
    [completed + rejected + shed + lost = tasks], with [lost > 0] only
    on an accounting bug.

    With a {!serving} config the engine switches to a closed-loop
    elastic serving mode: arrivals pass an SLO admission gate
    (token-bucket per request class; sheds early instead of queueing
    unboundedly), admitted requests coalesce in a dynamic batcher, a
    weighted least-outstanding-requests router spreads batches across
    warm replicas (deployments kept live between batches), and an
    optional autoscaler control loop grows and shrinks each group's
    replica set from queue depth and observed p99 sojourn —
    consolidating idle multi-piece replicas via forced migration when
    load drops.  [serving = None] (the default) leaves the open-loop
    engine untouched — results are bit-identical to builds without
    the serving layer.  Serving mode does not compose with fault
    plans; {!run} raises [Invalid_argument] when both are set. *)

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
  preempt : bool;
      (** when a batch from a tenant with positive
          {!Genset.tenant_load.tl_priority} cannot be admitted to the
          fabric, evict a lower-priority tenant's replica instead of
          backlogging: an idle victim is first force-migrated (denser
          packing may free the needed device; rollback keeps it live),
          otherwise it is undeployed and its in-flight batch counts as
          preempted losses.  A demand that could not deploy even on an
          empty, healthy cluster never evicts anyone — it is rejected
          outright.  [false] (the default), or a workload with no
          positive priorities, never preempts — results are
          bit-identical to a build without the policy. *)
  defrag : Mlv_core.Defrag.config option;
      (** background defragmentation: every
          {!Mlv_core.Defrag.config.interval_us} of simulated time,
          when no group has backlog and the fragmentation index
          crosses the threshold, run a compaction pass over idle
          replicas' deployments.  [None] (the default) never moves
          anything. *)
}

(** [default_serving] admits every class, batches up to 4 requests
    with a 300 µs linger, runs the default autoscaler, and enables
    neither preemption nor defragmentation. *)
val default_serving : serving

(** Streaming telemetry: an optional scrape loop that samples run
    state into {!Mlv_obs.Series} rings every [scrape_interval_us] of
    simulated time and evaluates the alert [rules] against them.

    Both engines publish [sysim.completed.rate], [sysim.rejected.rate],
    [sysim.slo_missed.rate], [sysim.queue_depth] and
    [sysim.sojourn_us.p99]; the open loop adds [sysim.retried.rate]
    and [sysim.nodes_down], serving mode adds [sysim.shed.rate],
    [sysim.replicas] and the autoscaler-sampled
    [sysim.autoscale.backlog]; multi-tenant runs add
    [sysim.tenant.completed.rate{tenant=..}] and
    [sysim.tenant.slo_missed.rate{tenant=..}] (the burn-rate rule
    inputs).  Scrape ticks only read state, so simulation results are
    bit-identical with telemetry on or off. *)
type telemetry = {
  scrape_interval_us : float;  (** simulated µs between scrapes, > 0 *)
  rules : Mlv_obs.Alert.rule list;
  series_buckets : int;  (** ring capacity of each published series *)
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
  mean_interarrival_us : float;
  arrival : Genset.arrival option;
      (** overrides [mean_interarrival_us] when set (e.g. a bursty
          trace); [None] keeps the exponential stream *)
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
      (** [None] (the default) keeps the open-loop engine *)
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
          task generation.  Both engines accept a replay *)
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
  tn_admitted : int;  (** passed the admission gate (serving mode) *)
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
      (** requests the admission gate refused at arrival (serving
          mode only; 0 in the open loop) *)
  lost : int;
      (** [tasks - completed - rejected - shed]; 0 unless buggy *)
  makespan_us : float;
  throughput_per_s : float;  (** completed tasks / makespan *)
  goodput_per_s : float;
      (** completions that met their SLO deadline / makespan *)
  fault_downtime_us : float;
      (** total time with at least one node down *)
  fault_free_throughput_per_s : float;
      (** completions outside outage windows over makespan minus
          overlapping downtime; equals [throughput_per_s] when no
          outage occurred *)
  mean_latency_us : float;  (** arrival to completion *)
  mean_wait_us : float;
      (** arrival to deployment, {e end to end}: a crash retry
          accumulates every round of queueing into one wait *)
  wait_attempts : int;  (** deploy attempts that left the queue *)
  mean_wait_per_attempt_us : float;
      (** queue wait of each attempt, measured from when the task
          (re-)entered the queue; differs from [mean_wait_us] only
          when crashes forced retries *)
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
  batches : int;  (** serving mode: batches dispatched *)
  scale_ups : int;  (** serving mode: replicas added (incl. bootstrap) *)
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

(** [build_registry ()] compiles every instance (expensive; share the
    result across runs). *)
val build_registry : unit -> Mlv_core.Registry.t

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

(** [run ~registry config] plays the workload to completion. *)
val run : registry:Mlv_core.Registry.t -> config -> result
