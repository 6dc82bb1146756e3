(** The runtime management system (paper §2.3, Fig. 7).

    The system controller receives deployment requests, searches the
    mapping database for feasible results, and drives the low-level
    ViTAL controllers to configure physical FPGAs.  The default
    policy is the paper's greedy one: try mapping results in
    ascending order of soft-block count, minimizing allocated FPGAs
    and therefore inter-FPGA communication.

    Policy variants cover the paper's comparisons and our ablations:
    - [greedy] — the proposed policy (heterogeneous devices allowed);
    - [restricted] — one accelerator only spans devices of a single
      type (emulates existing HS abstractions' multi-FPGA support,
      the 16%-loss comparison of Fig. 12);
    - [baseline] — AS-ISA-only management: whole-device granularity,
      no spatial sharing, no multi-FPGA deployment;
    - [first_fit] — greedy order but first-fitting nodes instead of
      best-fitting (ablation). *)

type policy = {
  policy_name : string;
  fewest_first : bool;  (** search fewest-piece mapping results first *)
  same_type_only : bool;  (** all pieces on one device type *)
  whole_device : bool;  (** per-device granularity (no sharing) *)
  best_fit : bool;  (** node choice minimizes leftover blocks *)
}

val greedy : policy
val restricted : policy
val baseline : policy
val first_fit : policy

type placement = {
  node_id : int;
  bitstream : Mlv_vital.Bitstream.t;
  handle : Mlv_vital.Controller.handle;
}

type deployment = {
  id : int;
      (** stable per-runtime id, assigned at creation; survives
          migration and failover (which graft fresh placements onto
          the same value) and labels the deploy/migrate/failover
          spans and lifecycle-trace events *)
  accel : string;
  mutable placements : placement list;
  mutable reconfig_us : float;  (** summed partial-reconfiguration time *)
}

(** [nodes_used d] / [tiles_deployed d] summarize a deployment. *)
val nodes_used : deployment -> int list

val tiles_deployed : deployment -> int

type t

(** [create ?policy ?cache cluster registry] builds a controller
    serving [registry]'s accelerators.

    Candidate nodes come from an incremental {!Alloc_index} maintained
    across deploy / undeploy / migrate / failover / restore, so a
    request does no per-node cluster scan.  The index assumes this
    runtime is the only writer of the cluster's controllers.

    [~cache] installs a bitstream staging cache
    ({!Mlv_vital.Bitstream.Cache}): every controller load's
    reconfiguration time is re-priced through it, so repeat
    deployments of a cached (accelerator, partition, device-kind)
    bitstream pay the amortized hit cost instead of the full PCIe
    transfer.  Without it (the default) deployment times are
    bit-identical to cacheless builds. *)
val create :
  ?policy:policy ->
  ?cache:Mlv_vital.Bitstream.Cache.t ->
  Mlv_cluster.Cluster.t ->
  Mapdb.t ->
  t

val policy : t -> policy

(** [bitstream_cache t] is the staging cache, if one was installed. *)
val bitstream_cache : t -> Mlv_vital.Bitstream.Cache.t option

(** [index_consistent t] checks the capacity index against the
    controllers; the churn invariant tests call it after every
    mutation. *)
val index_consistent : t -> bool

(** [registry t] is the mapping database the controller serves from. *)
val registry : t -> Mapdb.t

(** [cluster t] is the cluster this controller drives (the fault
    layers schedule against its simulator and network). *)
val cluster : t -> Mlv_cluster.Cluster.t

(** [deploy t ~accel] finds and performs a feasible allocation, or
    explains why none exists.  It walks {!Mapdb.levels} in policy
    order and, per level, each kind filter (every device kind under
    [same_type_only], else none), assigning pieces biggest-first to
    the capacity index's best- or first-fit node with backtracking.
    The test-side placement oracle repeats this search by scanning
    the cluster's controllers and must agree at every deploy.

    A refusal ([Error]) says only that no allocation fits the cluster
    as it is now: the accelerator is unknown, or its pieces do not fit
    the free blocks of the healthy nodes.  {!feasible} tells the two
    kinds of "no" apart — whether waiting (for undeploys, restores)
    can ever help.

    Before searching, [deploy] refuses in O(1) a plan that cannot fit
    (see {!refused_by_bound}); the refusal still runs inside the
    [deploy] span and counts in [runtime.deploy.fail]. *)
val deploy : t -> accel:string -> (deployment, string) result

(** [refused_by_bound t ~accel] is whether {!deploy}'s O(1) bound
    refuses [accel] now, from the capacity index's counters and the
    plan's {!Mapdb.need}: fewer free blocks on the healthy nodes than
    any level needs, or, under [whole_device], fewer completely free
    nodes than any level has pieces.  Sound because the pieces of one
    placement reserve disjoint blocks on healthy nodes, each at least
    its smallest option's, and a whole-device piece takes a whole free
    node.  [false] for an unknown accelerator. *)
val refused_by_bound : t -> accel:string -> bool

(** [feasible t ~accel] is whether {!deploy} would succeed if every
    node of the cluster were free and healthy: [false] for an unknown
    accelerator and for one no policy-ordered mapping result fits
    this cluster's shape.  It runs [deploy]'s own search against a
    vacant view of the cluster and touches nothing else: no
    controller, counter, span, deployment id or the live capacity
    index.  Memoised per accelerator against its registered plan, so
    a repeat query is one table lookup and a re-registered
    accelerator is checked again. *)
val feasible : t -> accel:string -> bool

(** [deployment_vbs d] sums the virtual blocks across [d]'s
    placements. *)
val deployment_vbs : deployment -> int

(** [undeploy t d] releases every placement. *)
val undeploy : t -> deployment -> unit

(** Node failure handling: a failed node's virtual blocks stop being
    allocation candidates, and every deployment that had a placement
    there is torn down and redeployed on the healthy nodes. *)
type failover = {
  recovered : int;  (** deployments successfully re-placed *)
  lost : deployment list;  (** deployments that no longer fit *)
}

(** [fail_node t node] marks [node] failed and fails over its
    deployments.  Surviving deployment values keep working as
    handles (their placements are updated in place).
    @raise Invalid_argument on an out-of-range node. *)
val fail_node : t -> int -> failover

(** [mark_node_failed t node] removes a node from the allocation
    candidate sets {e without} failing over its deployments — they
    stay live but {!deployment_health} reports them degraded.  The
    caller picks the recovery: {!migrate} each degraded deployment,
    or re-queue the affected work at a higher layer (what the system
    simulation's fault layer does).  Idempotent.
    @raise Invalid_argument on an out-of-range node. *)
val mark_node_failed : t -> int -> unit

(** [restore_node t node] returns a node to service (existing
    deployments are not moved back; {!Defrag.run_pass} repacks). *)
val restore_node : t -> int -> unit

(** [failed_nodes t] lists nodes currently marked failed. *)
val failed_nodes : t -> int list

(** [node_failed t node] tells whether the node is marked failed. *)
val node_failed : t -> int -> bool

(** [failed_count t] is the number of nodes currently marked failed
    (O(1), allocation-free). *)
val failed_count : t -> int

(** [deployment_health t d] lists the failed nodes [d] still occupies
    ([[]] means healthy). *)
val deployment_health : t -> deployment -> int list

(** [degraded t] lists live deployments with a placement on a failed
    node. *)
val degraded : t -> deployment list

(** [migrate t d] re-places a live degraded deployment's pieces off
    the failed nodes through the normal mapping-database search,
    returning the new placement count ([Ok 0] when [d] was already
    healthy — nothing moves).  On [Error] the original placements are
    restored and the deployment stays live (and degraded).  The
    deployment value remains a valid handle either way.

    [~force:true] re-places even a healthy deployment — the serving
    layer's consolidation path, which migrates idle replicas into
    denser packings when load drops.  The rollback guarantee is
    identical. *)
val migrate : ?force:bool -> t -> deployment -> (int, string) result

(** [deployments t] lists live deployments. *)
val deployments : t -> deployment list

(** Cluster occupancy snapshot. *)
type stats = {
  live : int;  (** live deployments *)
  vbs_used : int;
  vbs_total : int;
  per_node : (int * int * int) list;  (** (node, used, total) *)
}

val stats : t -> stats

(** [cluster_utilization t] is used / total virtual blocks. *)
val cluster_utilization : t -> float

(** [fragmentation t] is the fraction of free virtual blocks stranded
    on partially-occupied healthy devices — free capacity no
    whole-device (or device-sized) request can use; 0 when nothing is
    free.  O(1): incremental counters in the capacity index (the
    test-side placement oracle recomputes it by scanning). *)
val fragmentation : t -> float

(** [whole_free_nodes t] counts healthy nodes with every virtual
    block free — the candidate pool for device-sized placements. *)
val whole_free_nodes : t -> int
