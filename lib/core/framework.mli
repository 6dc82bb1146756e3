(** Top-level facade: the full compile flow of the paper in one call.

    [build_npu] generates the BrainWave-like accelerator's RTL,
    decomposes it onto the system abstraction (with the case-study
    adjustment moving the converter, VRF and writeback into the
    control block), partitions it, and maps every piece onto every
    device type.  [npu_registry] builds the runtime database with one
    accelerator instance per requested tile count — the "multiple
    accelerator instances with different numbers of MVM tiles" of
    §4.2. *)

open Mlv_rtl

type npu = {
  config : Mlv_accel.Config.t;
  design : Design.t;
  decomposed : Decompose.decomposition;
  mapping : Mapping.t;
}

(** [build_npu ?iterations ?cost_cache ~tiles ()] runs the full flow.
    [iterations] is the partitioning depth (default 2); [cost_cache]
    shares memoized per-shape cost-model results across builds. *)
val build_npu :
  ?iterations:int -> ?cost_cache:Mapping.cost_cache -> tiles:int -> unit -> (npu, string) result

(** [accel_name ~tiles] is the registry key, e.g. ["npu-t21"]. *)
val accel_name : tiles:int -> string

(** [npu_registry ?iterations ~tile_counts ()] compiles one instance
    per tile count and registers them all.
    @raise Failure if any build fails. *)
val npu_registry : ?iterations:int -> tile_counts:int list -> unit -> Mapdb.t

(** [decompose_config] is the decomposer configuration used for the
    NPU (control-path marking plus the case-study companions). *)
val decompose_config : Decompose.config
