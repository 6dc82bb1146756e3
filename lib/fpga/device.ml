type kind = XCVU37P | XCKU115

type t = {
  kind : kind;
  name : string;
  capacity : Resource.t;
  base_freq_mhz : float;
  virtual_block_count : int;
  vb_region : Resource.t;
  lut_factor : float;
  dff_factor : float;
  has_uram : bool;
}

(* Capacities derived from Table 2's utilization percentages:
   XCVU37P: 610k LUTs = 46.8%, 659k DFFs = 25.3%, 51.5Mb BRAM = 72.6%,
   22.5Mb URAM = 8.3%, 7517 DSPs = 83.3%.
   XCKU115: 367k LUTs = 55.3%, 386k DFFs = 29.1%, 45.4Mb = 59.8%,
   5073 DSPs = 91.9%. *)
let vu37p =
  {
    kind = XCVU37P;
    name = "XCVU37P";
    capacity =
      Resource.make ~luts:1_303_680 ~dffs:2_607_360 ~bram_kb:72_627 (* 70.9 Mb *)
        ~uram_kb:276_480 (* 270 Mb *) ~dsps:9_024 ();
    base_freq_mhz = 400.0;
    (* ViTAL divides the fabric into identical virtual blocks; the
       region sizes below reproduce Table 3's utilization when one
       decomposed-accelerator block is mapped in. *)
    virtual_block_count = 15;
    vb_region =
      Resource.make ~luts:79_000 ~dffs:158_000 ~bram_kb:4_322 ~uram_kb:17_280
        ~dsps:580 ();
    lut_factor = 1.0;
    dff_factor = 1.0;
    has_uram = true;
  }

let ku115 =
  {
    kind = XCKU115;
    name = "XCKU115";
    capacity =
      Resource.make ~luts:663_360 ~dffs:1_326_720 ~bram_kb:77_824 (* 76 Mb *)
        ~uram_kb:0 ~dsps:5_520 ();
    base_freq_mhz = 300.0;
    virtual_block_count = 10;
    vb_region =
      Resource.make ~luts:50_600 ~dffs:83_500 ~bram_kb:5_266 ~uram_kb:0 ~dsps:552 ();
    lut_factor = 0.913;
    dff_factor = 0.888;
    has_uram = false;
  }

let get = function XCVU37P -> vu37p | XCKU115 -> ku115
let kinds = [ XCVU37P; XCKU115 ]
let kind_rank = function XCVU37P -> 0 | XCKU115 -> 1
let kind_name = function XCVU37P -> "XCVU37P" | XCKU115 -> "XCKU115"

let of_name s =
  match String.lowercase_ascii s with
  | "xcvu37p" | "vu37p" -> Some XCVU37P
  | "xcku115" | "ku115" | "kcu115" -> Some XCKU115
  | _ -> None

let equal_kind (a : kind) b = a = b
