(** Cluster capacity index: the system controller's incremental view
    of every node's free virtual blocks (paper §2.3).

    A snapshot-scan allocator (the test-side oracle,
    [test/oracle/placement.ml]) re-snapshots the whole cluster
    ([Array.init n Node.free_vbs]) and linear-scans every node per
    piece, per device option, per kind filter and per level on every
    deployment — O(n) work repeated hundreds of times per request at
    fleet scale.  This index keeps, per device kind, buckets of
    healthy nodes keyed by their free-virtual-block count (free
    counts are small — a device has at most a few dozen virtual
    blocks — so a bucket array indexed by free count gives best-fit
    and first-fit candidate selection in O(max_vbs + log n) via one
    bucket scan plus an ordered-set lookup).

    The index mirrors the ViTAL controllers: every real load/unload
    must be followed by {!refresh} on the touched node.  During the
    runtime's backtracking search, tentative allocations go through
    the transactional {!reserve}/{!rollback} API so a failed branch
    leaves the index untouched.

    Selection is deliberately bit-compatible with the naive scan:
    best-fit returns the node with the fewest free blocks ≥ the
    demand, lowest node id on ties; first-fit returns the lowest node
    id with enough free blocks; whole-device variants consider only
    nodes whose every block is free.  The differential tests in
    [test_place.ml] assert this equivalence across all policies. *)

open Mlv_fpga

type t

(** [build cluster] indexes the cluster's current controller state.
    One index per cluster per runtime: concurrent writers through a
    second runtime would go stale. *)
val build : Mlv_cluster.Cluster.t -> t

(** [vacant cluster] indexes the cluster's shape as if every node
    were free and healthy, whatever its controllers hold: a scratch
    view for feasibility searches.  It mirrors no controller, so only
    selection and transactions are meaningful on it ({!refresh},
    {!restore} and {!consistent} read the controllers). *)
val vacant : Mlv_cluster.Cluster.t -> t

(** [refresh t node] re-reads the node's controller free count and
    re-files the node.  Call after every real load/unload. *)
val refresh : t -> int -> unit

(** [mark_failed t node] removes the node from every candidate set
    (its mirrored free count is still tracked).  Idempotent. *)
val mark_failed : t -> int -> unit

(** [restore t node] returns a failed node to the candidate sets,
    re-reading its controller state.  Safe on a healthy node. *)
val restore : t -> int -> unit

(** [free t node] / [total t node] are the mirrored counts. *)
val free : t -> int -> int

val total : t -> int -> int

(** [whole_free_nodes t] counts healthy nodes with every block free. *)
val whole_free_nodes : t -> int

(** [free_total t] sums the free blocks of the healthy nodes. *)
val free_total : t -> int

(** [fragmentation t] is the fraction of free virtual blocks stranded
    on partially-occupied devices:
    [(free_total - free_whole) / free_total], or [0.] when nothing is
    free.  The defragmenter's score. *)
val fragmentation : t -> float

(** [best_fit t ~kind ~whole_device ~vbs] is the candidate node the
    greedy policy picks: fewest free blocks ≥ [vbs], lowest id on
    ties.  With [whole_device], only completely-free nodes qualify
    (AS-ISA-only granularity). *)
val best_fit : t -> kind:Device.kind -> whole_device:bool -> vbs:int -> int option

(** [first_fit t ~kind ~whole_device ~vbs] is the lowest node id with
    enough free blocks. *)
val first_fit : t -> kind:Device.kind -> whole_device:bool -> vbs:int -> int option

(** Transactional tentative reservations for the backtracking
    allocator: one transaction per search frame; [rollback] undoes
    every reservation of the frame, [commit] keeps them (the caller
    then performs the real loads and {!refresh}es the nodes, which
    reconciles the mirror with the controllers). *)
type txn

val begin_ : t -> txn

(** [reserve txn ~node ~vbs] tentatively takes [vbs] blocks.
    @raise Invalid_argument if the node lacks the blocks (a selection
    bug — selection always returns satisfying nodes). *)
val reserve : txn -> node:int -> vbs:int -> unit

val rollback : txn -> unit
val commit : txn -> unit

(** [consistent t] checks the mirror against the controllers and the
    bucket structure against the mirror; the churn-invariant tests
    call it after every mutation. *)
val consistent : t -> bool
