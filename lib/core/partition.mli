(** The partitioning step (paper §2.2.2, Fig. 6).

    A decomposed accelerator is iteratively 2-way partitioned to
    produce deployment units for up to [2^N] FPGAs.  The extracted
    parallel patterns prune the search: a data-parallel node splits
    its children evenly (any split is equivalent); a pipeline node is
    cut at the internal connection with minimal bandwidth; leaves are
    atomic.  The paper's key quality property — never cutting the
    pipeline inside a SIMD unit — holds by construction, because a
    cut is only ever made {e between} children of the current root,
    never inside a data-parallel replica. *)

type piece = {
  piece_id : string;  (** e.g. ["p2/1"]: level 2, index 1 *)
  level : int;  (** number of bisections applied: 0 = whole *)
  index : int;
  tree : Soft_block.t;
  cut_bits : int;  (** bandwidth crossing into the next piece at this level *)
}

(** [bisect tree] splits one soft block into two clusters, returning
    the cut bandwidth, or [None] when the block is atomic (a leaf, or
    a group of one). *)
val bisect : Soft_block.t -> (Soft_block.t * Soft_block.t * int) option

(** [run tree ~iterations] produces the partitioning results for
    every level [0..iterations]: level [k] holds at most [2^k]
    pieces (fewer when blocks become atomic).  Level 0 is the whole
    tree. *)
val run : Soft_block.t -> iterations:int -> piece list list

