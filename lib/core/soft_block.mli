(** The system abstraction: soft blocks in a multi-level tree
    (paper §2.1, Fig. 2).

    A leaf soft block contains one basic module (a Verilog module
    that instantiates no other module).  A non-leaf soft block has
    children composed by one of the two primitive parallel patterns —
    data parallelism or pipeline parallelism — which suffice to
    express all complex/nested patterns.  Soft blocks carry no
    FPGA-specific spatial constraints: resources are an annotation,
    not a limit, which is what lets the decomposing step run
    unconstrained and gives the runtime a homogeneous view of the
    heterogeneous cluster. *)

open Mlv_fpga

(** The two primitive parallel patterns. *)
type composition = Data_parallel | Pipeline

(** Which side of the control/data split a block belongs to. *)
type role = Control | Data

type t =
  | Leaf of leaf
  | Node of node

and leaf = {
  lname : string;
  module_name : string;  (** the basic module inside *)
  instance_path : string;  (** hierarchical path in the source RTL *)
  resources : Resource.t;  (** annotation from estimation *)
  lrole : role;
}

and node = {
  nname : string;
  composition : composition;
  children : t list;
  link_bits : int list;
      (** for [Pipeline]: bandwidth of the connection between
          consecutive children, length = |children| - 1; [] for
          [Data_parallel] *)
  nrole : role;
}

(** [leaf ~name ~module_name ~instance_path ~resources ~role ()]
    builds a leaf. *)
val leaf :
  name:string ->
  module_name:string ->
  ?instance_path:string ->
  resources:Resource.t ->
  ?role:role ->
  unit ->
  t

(** [data_par ~name children] composes children in data parallelism.
    @raise Invalid_argument on fewer than one child. *)
val data_par : name:string -> ?role:role -> t list -> t

(** [pipeline ~name ?link_bits children] composes children in
    pipeline parallelism.
    @raise Invalid_argument if [link_bits] is given with wrong
    arity. *)
val pipeline : name:string -> ?role:role -> ?link_bits:int list -> t list -> t

val name : t -> string
val role : t -> role

(** [resources t] sums leaf annotations. *)
val resources : t -> Resource.t

(** [leaves t] lists leaves left to right. *)
val leaves : t -> leaf list

(** [size t] counts all blocks (leaves and nodes). *)
val size : t -> int

(** [depth t] is 1 for a leaf. *)
val depth : t -> int

(** [count_composition t c] counts internal nodes using pattern [c]. *)
val count_composition : t -> composition -> int

(** [equal_shape a b] — same tree structure, compositions and leaf
    module names (instance paths and names may differ).  This is the
    equivalence the partitioner uses to recognize replicas. *)
val equal_shape : t -> t -> bool

(** [shape_key t] is a canonical serialization of the shape:
    [shape_key a = shape_key b] iff [equal_shape a b].  The mapping
    database uses it to memoize per-shape cost-model results. *)
val shape_key : t -> string

(** [validate t] checks structural invariants: non-empty nodes,
    link_bits arity, data-parallel children of equal shape.  Returns
    human-readable violations. *)
val validate : t -> string list

(** [pp] renders the tree, one block per line with indentation. *)
val pp : Format.formatter -> t -> unit

(** [to_dot ?name t] renders the tree as a Graphviz digraph: leaves
    are boxes labelled with their module, data-parallel nodes are
    trapezia, pipelines are ellipses with link bandwidths on the
    edges. *)
val to_dot : ?name:string -> t -> string
