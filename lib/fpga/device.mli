(** FPGA device catalog.

    The evaluation cluster of the paper contains two device types:
    three Xilinx Virtex UltraScale+ XCVU37P and one Kintex UltraScale
    XCKU115.  Capacities are back-derived from the utilization
    percentages the paper reports in Table 2 (e.g. 610k LUTs = 46.8%
    of the XCVU37P implies a ~1304k-LUT device, matching the real
    part). *)

(** Device families used in the paper's cluster. *)
type kind = XCVU37P | XCKU115

type t = {
  kind : kind;
  name : string;
  capacity : Resource.t;  (** total fabric resources *)
  base_freq_mhz : float;  (** frequency achieved by a floorplanned design *)
  virtual_block_count : int;
      (** how many ViTAL virtual blocks the device is divided into *)
  vb_region : Resource.t;  (** fabric capacity of one virtual-block region *)
  lut_factor : float;
      (** device-specific synthesis scale for LUT counts (1.0 on the
          reference XCVU37P; smaller parts map slightly denser) *)
  dff_factor : float;  (** same, for flip-flops *)
  has_uram : bool;
}

(** [get kind] is the catalog entry. *)
val get : kind -> t

(** [kinds] lists every known device kind. *)
val kinds : kind list

(** [kind_rank k] is [k]'s position in {!kinds}, for tables indexed
    by kind. *)
val kind_rank : kind -> int

(** [kind_name k] is the marketing name, e.g. ["XCVU37P"]. *)
val kind_name : kind -> string

(** [of_name s] parses a device name (case-insensitive), e.g.
    ["xcku115"]. *)
val of_name : string -> kind option

(** [equal_kind] compares kinds. *)
val equal_kind : kind -> kind -> bool
