(** Mapping partitioned accelerators onto the HS abstraction for
    every device type (paper Fig. 5), producing the bitstream set the
    runtime's database stores.

    Each partition piece is compiled against each device kind in the
    catalog; infeasible (device, piece) combinations are simply
    absent, which is how Table 4's "cannot fit" cases surface.
    Resource costs per device come from a pluggable cost model: the
    default prices a unit by its leaf estimation annotations; the NPU
    model prices engine subtrees at the calibrated Table-3 figures
    and splits the control block across virtual-block-sized slices. *)

open Mlv_fpga

(** [cost_model ~unit_tree kind] is the fabric cost of one placeable
    unit on device [kind]. *)
type cost_model = unit_tree:Soft_block.t -> Device.kind -> Resource.t

(** Prices engine subtrees (recognized by their [accum] stage) at the
    calibrated per-engine mapped cost. *)
val npu_cost_model : cost_model

(** Memoized cost-model results, keyed by (unit shape, summed leaf
    annotation, device kind) and kept apart per cost model (compared
    physically), so compiles under different models never read each
    other's prices.  Pass one cache to several {!compile} calls (as
    {!Framework.npu_registry}'s session does across its instances) to
    price each distinct unit shape once per device kind.  Sound for
    cost models that are pure functions of those three inputs — both
    built-ins are. *)
type cost_cache

val cost_cache : unit -> cost_cache

type compiled_piece = {
  piece : Partition.piece;
  includes_control : bool;
  tiles : int;  (** replicated (engine) units in this piece *)
  bitstreams : (Device.kind * Mlv_vital.Bitstream.t) list;
      (** feasible devices only *)
}

type t = {
  accel_name : string;
  control : Soft_block.t;
  data : Soft_block.t;
  levels : compiled_piece list list;
      (** index = partition level; level 0 is the whole accelerator *)
}

(** [compile ?cost_model ?iterations ~name ~control ~data ()] runs
    the partitioner for levels [0..iterations] (default 2, paper:
    "1 or 2 iterations suffice") and maps every piece onto every
    device kind.  The control block rides with piece 0 of each
    level. *)
val compile :
  ?cost_model:cost_model ->
  ?cost_cache:cost_cache ->
  ?iterations:int ->
  name:string ->
  control:Soft_block.t ->
  data:Soft_block.t ->
  unit ->
  t

(** [levels_fewest_first t] lists deployment options sorted by piece
    count ascending — the greedy runtime policy's order. *)
val levels_fewest_first : t -> compiled_piece list list

