(** Resource estimation for RTL modules.

    Maps a flattened primitive census ({!Mlv_rtl.Design.prim_census})
    to a {!Resource.t} using standard FPGA mapping rules (1 LUT per
    bit of logic, DSP48 tiling for wide multipliers, 36kb BRAM
    granularity).  Used to annotate soft blocks so the partitioner
    and the virtual-block compiler can reason about feasibility. *)

open Mlv_rtl

(** [of_prim p] is the cost of a single primitive. *)
val of_prim : Ast.prim -> Resource.t

(** [of_census census] sums a census. *)
val of_census : (Ast.prim * int) list -> Resource.t

(** [of_module design name] estimates the full hierarchy under module
    [name]. *)
val of_module : Design.t -> string -> Resource.t

(** [memo design] is [of_module design], remembering each module's
    estimate for as long as the returned function is held.  A
    decomposition makes one per run, so a module instantiated by many
    blocks is estimated once. *)
val memo : Design.t -> string -> Resource.t
