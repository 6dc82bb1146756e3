(** Cycle-approximate performance model of the accelerator.

    Programs are scheduled on an in-order, single-issue pipeline with
    three function units (MVM array, multi-function units, memory
    interface): an instruction issues when the previous one has
    issued, starts executing when its operands are ready and its
    function unit is free, occupies the unit for its initiation
    interval, and delivers its result after its latency.  This is the
    standard model of a BrainWave-class NPU and reproduces the shape
    of the paper's Table 4.

    Deployment through ViTAL's virtual blocks adds
    latency-insensitive-interface hops to every producer-consumer
    edge; the pattern-aware partitioner of the paper keeps each SIMD
    unit's pipeline inside one virtual block so the hop count stays
    at one, whereas a pattern-oblivious split scatters pipelines
    across blocks (the ablation's [pattern_aware = false]). *)

open Mlv_fpga

(** How the accelerator is deployed on the fabric. *)
type deployment = {
  vital : bool;  (** through the HS abstraction (virtual blocks) *)
  virtual_blocks : int;  (** number of virtual blocks occupied *)
  pattern_aware : bool;  (** partitioned along extracted patterns *)
}

(** Bare-metal baseline deployment (whole device, no indirection). *)
val bare : deployment

(** [vital_deploy ~virtual_blocks ~pattern_aware] builds a
    virtual-block deployment descriptor. *)
val vital_deploy : virtual_blocks:int -> pattern_aware:bool -> deployment

type breakdown = {
  total_us : float;
  compute_cycles : int;  (** cycles the MVM+MFU units were busy *)
  memory_us : float;  (** DRAM transfer time *)
  li_cycles : int;  (** latency-insensitive interface cycles added *)
  instructions : int;
  freq_mhz : float;  (** achieved clock used for conversion *)
}

(** [program_latency config device ?deploy ?board ?weights_resident
    ?extra_latency_us program] schedules [program] and returns the
    latency breakdown.

    [weights_resident] (default true) models steady-state serving:
    matrix loads hit tile memory already populated.  When false, or
    when the model's weights exceed {!Config.weight_capacity_words},
    every [Mvm] streams its matrix from DRAM and the instruction's
    initiation interval becomes the max of compute and streaming.

    [extra_latency_us] lets callers charge additional per-instruction
    latency (the scale-out optimizer uses it for ring transfers).

    [instr_buffer] (default true) models the on-chip instruction
    buffer of paper Section 3; with it off, every instruction fetch
    streams from DRAM.  [dram_sharers] (default 1) is the number of
    accelerators sharing the device's DRAM channel — combined with a
    disabled buffer this reproduces the contention that breaks
    performance isolation (Section 4.4).

    [partner_stretch] (default 1.0) models a heterogeneous partner in
    a scale-out deployment: the matching send on the other FPGA is
    assumed to happen [partner_stretch] times later than our own
    (e.g. 400/300 when the partner is the slower XCKU115).

    [sync_base] marks DRAM addresses at and beyond it as inter-FPGA
    synchronization accesses (paper §2.3).  A [V_wr] there is a send
    posted to the mailbox at its exact address; a [V_rd] there is a
    receive that waits for the last send posted to {e its own}
    address, whatever its length (as in {!Mlv_isa.Exec}), plus the
    transfer [extra_latency_us] charges it.  A receive with no send
    posted to its address waits for nothing.  A sync read is
    {e issue-blocking}: the in-order processor stalls at the barrier
    until the partner's data arrives, so instructions textually after
    it cannot overlap the transfer — which is exactly why the
    instruction-reordering tool ({!Mlv_core.Scale_out.reorder}) sinks
    sync reads below independent work.  The lookup is O(1) per
    receive. *)
val program_latency :
  Config.t ->
  Device.t ->
  ?deploy:deployment ->
  ?board:Board.t ->
  ?weights_resident:bool ->
  ?instr_buffer:bool ->
  ?dram_sharers:int ->
  ?partner_stretch:float ->
  ?extra_latency_us:(Mlv_isa.Instr.t -> float) ->
  ?sync_base:int ->
  ?trace:(Mlv_isa.Instr.t -> start:float -> finish:float -> unit) ->
  Mlv_isa.Program.t ->
  breakdown

(** [mvm_cycles config ~rows ~cols] is the MVM initiation interval in
    cycles, exposed for tests and the scale-out analysis. *)
val mvm_cycles : Config.t -> rows:int -> cols:int -> int

(** [li_hops deploy] is the modeled hop count per dependence edge. *)
val li_hops : deployment -> int
