(** Structural RTL generator for the BrainWave-like accelerator.

    Emits the module hierarchy of paper Fig. 9 as {!Mlv_rtl} IR:

    {v
      bw_npu
      |- control_path      (attr control_path; instruction buffer,
      |                     decoder, sequencer)
      |- fp16_to_bfp       (format converter)
      |- vector_rf         (vector register file)
      |- engine x tiles    (identical: weight mem + dot units + MFU)
      |  |- dot_unit x rows_per_tile (identical, data-parallel)
      |  |- accum
      |  |- mfu_slice
      |- writeback         (per-engine result collection)
    v}

    The engines are identical modules all feeding [writeback], which
    is what the decomposer's inter-block data-parallelism step
    groups; inside an engine the dot units form a second
    data-parallel level under a pipeline — giving the multi-level
    tree of paper Fig. 2.  The paper's case-study adjustment (moving
    the converter and VRF into the control block, §3) is expressed at
    decompose time via {!control_companions}. *)

open Mlv_rtl

(** Generated modules that do not depend on [tiles], for sharing
    across the instances of one build.  Only [writeback] and the top
    [bw_npu] read [tiles]; the other seven modules are kept here,
    keyed by generator and by the configuration with [tiles] blanked. *)
type shared

val shared : unit -> shared

(** [generate ?shared config] builds the design; the top module is
    ["bw_npu"].  With [shared], every tile-independent module is taken
    from (or added to) the table, so designs generated through one
    table hold physically the same values for those modules; the
    design is structurally the one generated without it. *)
val generate : ?shared:shared -> Config.t -> Design.t

(** Module names of the small components the case study moves into
    the control-path soft block so the data path root becomes
    purely data-parallel: converter, VRF and writeback. *)
val control_companions : string list

(** [top_name] = ["bw_npu"], [control_name] = ["control_path"]. *)
val top_name : string

val control_name : string
val engine_name : string
