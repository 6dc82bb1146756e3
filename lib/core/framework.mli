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

(** A compile session: the work that several builds may share.  It
    holds the generated modules that do not depend on [tiles]
    ({!Mlv_accel.Rtl_gen.shared}), the decomposer's per-module
    analyses ({!Decompose.session}) and the mapping's priced unit
    shapes ({!Mapping.cost_cache}).  Every build through a session
    returns what it returns without one. *)
type session

val session : unit -> session

(** [build_npu ?iterations ?session ~tiles ()] runs the full flow.
    [iterations] is the partitioning depth (default 2); [session]
    shares the tile-independent work with the other builds given the
    same session (default: a fresh one, dropped on return). *)
val build_npu :
  ?iterations:int -> ?session:session -> tiles:int -> unit -> (npu, string) result

(** [accel_name ~tiles] is the registry key, e.g. ["npu-t21"]. *)
val accel_name : tiles:int -> string

(** [npu_registry ?iterations ~tile_counts ()] compiles one instance
    per tile count, through one session made for this call and
    dropped when it returns, and registers them all.
    @raise Failure if any build fails. *)
val npu_registry : ?iterations:int -> tile_counts:int list -> unit -> Mapdb.t

(** [decompose_config] is the decomposer configuration used for the
    NPU (control-path marking plus the case-study companions). *)
val decompose_config : Decompose.config
