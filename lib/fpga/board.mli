(** Per-board peripherals: DRAM channel, PCIe endpoint, and the
    secondary ring-network port connecting the FPGAs (paper §4.2).

    These numbers feed the timing models: the DRAM bandwidth bounds
    instruction/vector streaming, PCIe bounds host I/O, and the ring
    port bounds inter-FPGA scale-out traffic. *)

type t = {
  dram_bandwidth_gbps : float;  (** one DDR4 channel, GB/s *)
  dram_latency_ns : float;
  pcie_bandwidth_gbps : float;  (** PCIe gen3 x16 effective *)
  pcie_latency_us : float;
  ring_bandwidth_gbps : float;  (** inter-FPGA serial link *)
  ring_latency_us : float;  (** one hop, no added delay *)
}

(** [default] is the evaluation cluster's board configuration. *)
val default : t

(** [dram_read_time_us t ~bytes] is the transfer time for a
    contiguous burst. *)
val dram_read_time_us : t -> bytes:int -> float

(** [ring_transfer_time_us t ~bytes ~hops ~added_latency_us] models a
    ring transfer: per-hop latency (plus the programmable delay
    module of §4.3's Fig. 11 experiment) and serialization time. *)
val ring_transfer_time_us :
  t -> bytes:int -> hops:int -> added_latency_us:float -> float

(** [pcie_transfer_time_us t ~bytes] is host <-> board time. *)
val pcie_transfer_time_us : t -> bytes:int -> float
