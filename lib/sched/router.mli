(** Weighted least-outstanding-requests routing across replicas.

    Each key (a deployment group, i.e. an accelerator instance type)
    owns a set of replicas with positive weights.  {!pick} chooses the
    replica minimizing [outstanding / weight] — the classic
    least-outstanding-requests policy, generalized so a replica on a
    bigger instance (higher weight) absorbs proportionally more
    in-flight work.  Ties break on the lowest replica id, keeping
    dispatch deterministic.

    Each group is a position-tracked binary min-heap on
    [(outstanding/weight, id)]: {!pick} is an O(1) peek,
    {!begin_work}/{!end_work} are O(log replicas), and
    {!total_outstanding}/{!keys} return incrementally maintained
    values without allocating.  A sorted-list reference router in
    [test/router_oracle.ml] implements the same policy with linear
    scans; [test/test_sched.ml] checks this one against it op by op. *)

type t

val create : unit -> t

(** [add_replica t ~key ~replica_id ~weight] registers a replica.
    @raise Invalid_argument on a non-positive weight or duplicate id
    under the same key. *)
val add_replica : t -> key:string -> replica_id:int -> weight:float -> unit

(** [remove_replica t ~key ~replica_id] forgets a replica; its
    outstanding count is discarded.  Unknown ids are ignored. *)
val remove_replica : t -> key:string -> replica_id:int -> unit

(** [pick t ~key] is the replica id with the least outstanding work
    per unit weight, or [None] when [key] has no replicas. *)
val pick : t -> key:string -> int option

(** [begin_work t ~key ~replica_id n] records [n] requests dispatched
    to a replica. *)
val begin_work : t -> key:string -> replica_id:int -> int -> unit

(** [end_work t ~key ~replica_id n] records [n] requests completed
    (clamped at zero). *)
val end_work : t -> key:string -> replica_id:int -> int -> unit

(** [outstanding t ~key ~replica_id] is the in-flight count for one
    replica (0 if unknown). *)
val outstanding : t -> key:string -> replica_id:int -> int

val total_outstanding : t -> int

(** [replicas t ~key] lists replica ids under [key], sorted. *)
val replicas : t -> key:string -> int list

(** [keys t] lists keys with at least one replica, sorted.  The list
    is cached and rebuilt only when group membership changes —
    repeated calls allocate nothing. *)
val keys : t -> string list

(** [dispatched t] counts requests routed via {!begin_work}. *)
val dispatched : t -> int
