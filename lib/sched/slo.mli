(** SLO-aware admission control for the elastic serving layer.

    Each tenant request class carries a service-level objective (a
    sojourn deadline and a priority) and a token bucket.  The gate
    admits a request when its class has a token; otherwise the request
    is {e shed at arrival} — rejected immediately instead of queueing
    unboundedly and missing its deadline anyway.  Buckets refill
    continuously on the caller's clock (the simulation clock in
    [sysim]), so admission is deterministic given the arrival times.

    When the autoscaler is capacity-bound (it wants another replica
    and the cluster has none to give), it can raise the shed
    threshold: classes {e below} the threshold priority are shed
    outright until pressure clears, protecting higher-priority
    traffic — the closed-loop counterpart of weighted fair queueing's
    drop policy. *)

type class_spec = {
  class_name : string;
  priority : int;  (** higher sheds later under capacity pressure *)
  deadline_us : float;  (** sojourn SLO target; feeds goodput accounting *)
  rate_per_s : float;  (** token refill rate *)
  burst : int;  (** bucket capacity (initial tokens) *)
}

(** [class_spec name] with defaults: priority 0, 50 ms deadline,
    1000 req/s, burst 32.
    @raise Invalid_argument on a non-positive rate, burst or
    deadline. *)
val class_spec :
  ?priority:int ->
  ?deadline_us:float ->
  ?rate_per_s:float ->
  ?burst:int ->
  string ->
  class_spec

(** A tenant of the serving system, entitled to a weighted share of
    the admission pool. *)
type tenant_spec = {
  tenant_name : string;
  tenant_weight : float;  (** share of the pool; must be positive *)
}

(** [tenant_spec name] with weight 1.
    @raise Invalid_argument on a non-positive weight. *)
val tenant_spec : ?weight:float -> string -> tenant_spec

type t

(** [create specs] builds a gate.  An empty list admits everything
    (but still counts).
    @raise Invalid_argument on duplicate class names. *)
val create : class_spec list -> t

(** [set_tenant_pool t ~rate_per_s ~burst specs] installs per-tenant
    weighted fair-share buckets in front of the class gate: each
    tenant refills at [weight / sum weights] of the pool rate with the
    same share of the burst, floored at one token.  The floor is
    water-filled: floored tenants take exactly one token and the rest
    of the burst is re-split by weight among the others, so the
    per-tenant bursts sum to exactly [max burst (#tenants)] — a crowd
    of low-weight tenants can no longer accumulate more burst than
    the declared pool.  A request whose tenant bucket is empty is
    {!Shed_tenant} before the class gate sees it; the token is only
    consumed on final admission, so a class-level shed does not burn
    the tenant's share.  Every tenant starts with a full bucket.  The
    pool is set once, before the first admission.
    @raise Invalid_argument on a non-positive rate, burst < 1,
    duplicate tenant names, or a pool that is already set. *)
val set_tenant_pool :
  t -> rate_per_s:float -> burst:int -> tenant_spec list -> unit

(** [tenant_rate_of t name] is the tenant's fair-share refill rate
    (requests/s), 0 for unknown tenants. *)
val tenant_rate_of : t -> string -> float

(** [tenant_burst_of t name] is the tenant's water-filled bucket
    capacity (tokens), 0 for unknown tenants. *)
val tenant_burst_of : t -> string -> float

val classes : t -> class_spec list

(** [min_deadline_us t] is the tightest configured deadline, or 0 when
    no class is configured (no SLO). *)
val min_deadline_us : t -> float

type verdict =
  | Admitted
  | Shed_rate  (** class bucket empty *)
  | Shed_priority  (** class priority below the shed threshold *)
  | Shed_tenant  (** tenant fair-share bucket empty *)

(** A configured class's token bucket. *)
type class_bucket

(** [class_bucket t name] is the bucket of class [name], [None] when no
    class has that name. *)
val class_bucket : t -> string -> class_bucket option

val bucket_spec : class_bucket -> class_spec

(** A tenant's fair-share bucket (see {!set_tenant_pool}). *)
type tenant_bucket

(** [tenant_bucket t name] is tenant [name]'s bucket, [None] when the
    pool has no such tenant (or is not set).  Resolve after
    {!set_tenant_pool}. *)
val tenant_bucket : t -> string -> tenant_bucket option

(** [admit_in t b tb ~now_us] refills the class bucket [b] to [now_us]
    and takes a token.  An unknown class ([None]; and every class of
    the empty gate) is always admitted.  [now_us] must not go
    backwards between calls for the same class.  [Some tb] routes the
    request through that tenant's fair-share bucket first; [None]
    bypasses the fair-share gate.  Resolve the buckets once with
    {!class_bucket} and {!tenant_bucket}: admission then looks no name
    up. *)
val admit_in :
  t -> class_bucket option -> tenant_bucket option -> now_us:float -> verdict

(** [admit t ~class_name ~now_us] is {!admit_in} over [class_name]'s
    bucket and, given [~tenant], that tenant's; omitted or unknown
    tenants bypass the fair-share gate. *)
val admit : ?tenant:string -> t -> class_name:string -> now_us:float -> verdict

(** [set_shed_below t prio] sheds every class with [priority < prio]
    regardless of tokens; [set_shed_below t min_int] (the initial
    state) sheds none. *)
val set_shed_below : t -> int -> unit

val shed_below : t -> int

(** Decision counters, total and per class.  Unknown-class admissions
    are tracked in {!unknown_admitted}, so the identity
    [sum admitted_of + sum shed_of + unknown_admitted = admitted + shed]
    holds exactly. *)
val admitted : t -> int

val shed : t -> int
val admitted_of : t -> string -> int
val shed_of : t -> string -> int

(** [unknown_admitted t] counts admissions whose [class_name] matched
    no configured class (including every admission through an empty
    gate). *)
val unknown_admitted : t -> int
