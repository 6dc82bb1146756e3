(** The application-specific instruction set.

    Modeled after the BrainWave NPU ISA (paper §3): a vector
    register file, matrix registers backed by on-chip tile memory,
    matrix-vector multiply as the primary operation, pointwise
    multi-function-unit operations in float16, and DRAM read/write
    instructions.  The DRAM instructions double as the inter-FPGA
    communication primitives for scale-out: writes/reads to a
    pre-defined out-of-range address are intercepted by the
    synchronization template module (paper §2.3). *)

type vreg = int
type mreg = int

(** Activation functions implemented by the multi-function units. *)
type act = Sigmoid | Tanh | Relu | Identity

type t =
  | V_rd of { dst : vreg; addr : int; len : int }
      (** load a vector of [len] elements from DRAM word address *)
  | V_wr of { src : vreg; addr : int; len : int }  (** store a vector *)
  | V_fill of { dst : vreg; len : int; value : float }
      (** broadcast an immediate into a vector register *)
  | M_rd of { dst : mreg; addr : int; rows : int; cols : int }
      (** load a weight matrix into tile memory *)
  | Mvm of { dst : vreg; mat : mreg; src : vreg }
      (** dst = mat * src (BFP datapath) *)
  | Vv_add of { dst : vreg; a : vreg; b : vreg }
  | Vv_sub of { dst : vreg; a : vreg; b : vreg }
  | Vv_mul of { dst : vreg; a : vreg; b : vreg }  (** pointwise *)
  | Act of { dst : vreg; src : vreg; f : act }
  | Nop
  | Loop of { count : int }
      (** hardware loop: repeat the instructions up to the matching
          [End_loop] [count] times; the loop iteration index drives
          indexed addressing *)
  | End_loop
  | V_rd_i of { dst : vreg; base : int; stride : int; len : int }
      (** indexed load: address = base + iteration * stride *)
  | V_wr_i of { src : vreg; base : int; stride : int; len : int }
      (** indexed store *)

(** Effect summary used by dependency analysis. *)
type effects = {
  vreads : vreg list;
  vwrites : vreg list;
  mreads : mreg list;
  mwrites : mreg list;
  mem_read : (int * int) option;  (** (addr, len) in words *)
  mem_write : (int * int) option;
  mem_read_wild : bool;  (** reads memory at a loop-dependent address *)
  mem_write_wild : bool;
  barrier : bool;  (** loop boundaries order against everything *)
}

(** [effects i] is [i]'s effect summary, built by {!iter_effects}. *)
val effects : t -> effects

(** One effect of an instruction, as {!iter_effects} reports it: a
    read or write of vector or matrix register [x], of [len] words of
    memory at address [x], of memory at a loop-dependent address, or a
    loop boundary, which orders against everything. *)
type access = Vread | Vwrite | Mread | Mwrite | Mem_read | Mem_write | Wild_read | Wild_write | Barrier

(** [iter_effects f i] calls [f access x len] once per effect of [i]
    ([x] and [len] are 0 where they have no meaning), every read before
    any write, in operand order.  It allocates nothing, so analyses of
    large programs use it instead of {!effects}; the two agree. *)
val iter_effects : (access -> int -> int -> unit) -> t -> unit

(** [depends ~earlier ~later] is true when [later] must not be moved
    before [earlier]: any RAW/WAR/WAW hazard through vector or matrix
    registers, or through overlapping DRAM ranges.  DRAM accesses to
    disjoint ranges commute; two reads always commute. *)
val depends : earlier:t -> later:t -> bool

(** [opcode i] is the mnemonic, e.g. ["mvm"]. *)
val opcode : t -> string

val act_of_name : string -> act option

(** [pp] formats one instruction in assembler syntax. *)
val pp : Format.formatter -> t -> unit
