type vreg = int
type mreg = int
type act = Sigmoid | Tanh | Relu | Identity

type t =
  | V_rd of { dst : vreg; addr : int; len : int }
  | V_wr of { src : vreg; addr : int; len : int }
  | V_fill of { dst : vreg; len : int; value : float }
  | M_rd of { dst : mreg; addr : int; rows : int; cols : int }
  | Mvm of { dst : vreg; mat : mreg; src : vreg }
  | Vv_add of { dst : vreg; a : vreg; b : vreg }
  | Vv_sub of { dst : vreg; a : vreg; b : vreg }
  | Vv_mul of { dst : vreg; a : vreg; b : vreg }
  | Act of { dst : vreg; src : vreg; f : act }
  | Nop
  | Loop of { count : int }
  | End_loop
  | V_rd_i of { dst : vreg; base : int; stride : int; len : int }
  | V_wr_i of { src : vreg; base : int; stride : int; len : int }

type effects = {
  vreads : vreg list;
  vwrites : vreg list;
  mreads : mreg list;
  mwrites : mreg list;
  mem_read : (int * int) option;
  mem_write : (int * int) option;
  mem_read_wild : bool;
  mem_write_wild : bool;
  barrier : bool;
}

type access = Vread | Vwrite | Mread | Mwrite | Mem_read | Mem_write | Wild_read | Wild_write | Barrier

let iter_effects f = function
  | V_rd { dst; addr; len } ->
    f Mem_read addr len;
    f Vwrite dst 0
  | V_wr { src; addr; len } ->
    f Vread src 0;
    f Mem_write addr len
  | V_fill { dst; _ } -> f Vwrite dst 0
  | M_rd { dst; addr; rows; cols } ->
    f Mem_read addr (rows * cols);
    f Mwrite dst 0
  | Mvm { dst; mat; src } ->
    f Vread src 0;
    f Mread mat 0;
    f Vwrite dst 0
  | Vv_add { dst; a; b } | Vv_sub { dst; a; b } | Vv_mul { dst; a; b } ->
    f Vread a 0;
    f Vread b 0;
    f Vwrite dst 0
  | Act { dst; src; _ } ->
    f Vread src 0;
    f Vwrite dst 0
  | Nop -> ()
  | Loop _ | End_loop -> f Barrier 0 0
  | V_rd_i { dst; _ } ->
    f Wild_read 0 0;
    f Vwrite dst 0
  | V_wr_i { src; _ } ->
    f Vread src 0;
    f Wild_write 0 0

let no_effects =
  {
    vreads = [];
    vwrites = [];
    mreads = [];
    mwrites = [];
    mem_read = None;
    mem_write = None;
    mem_read_wild = false;
    mem_write_wild = false;
    barrier = false;
  }

let effects instr =
  let e = ref no_effects in
  iter_effects
    (fun access x len ->
      let c = !e in
      e :=
        match access with
        | Vread -> { c with vreads = c.vreads @ [ x ] }
        | Vwrite -> { c with vwrites = c.vwrites @ [ x ] }
        | Mread -> { c with mreads = c.mreads @ [ x ] }
        | Mwrite -> { c with mwrites = c.mwrites @ [ x ] }
        | Mem_read -> { c with mem_read = Some (x, len) }
        | Mem_write -> { c with mem_write = Some (x, len) }
        | Wild_read -> { c with mem_read_wild = true }
        | Wild_write -> { c with mem_write_wild = true }
        | Barrier -> { c with barrier = true })
    instr;
  !e

let ranges_overlap a b =
  match (a, b) with
  | Some (a0, alen), Some (b0, blen) -> a0 < b0 + blen && b0 < a0 + alen
  | _, None | None, _ -> false

let intersects a b = List.exists (fun x -> List.mem x b) a

let depends ~earlier ~later =
  let e = effects earlier and l = effects later in
  e.barrier || l.barrier
  (* Wild (loop-indexed) accesses conflict with any memory access. *)
  || (e.mem_write_wild && (l.mem_read <> None || l.mem_write <> None || l.mem_read_wild || l.mem_write_wild))
  || (l.mem_write_wild && (e.mem_read <> None || e.mem_write <> None || e.mem_read_wild))
  || (e.mem_read_wild && (l.mem_write <> None || l.mem_write_wild))
  || (l.mem_read_wild && e.mem_write <> None)
  (* Register hazards. *)
  || intersects e.vwrites l.vreads (* RAW *)
  || intersects e.vreads l.vwrites (* WAR *)
  || intersects e.vwrites l.vwrites (* WAW *)
  || intersects e.mwrites l.mreads
  || intersects e.mreads l.mwrites
  || intersects e.mwrites l.mwrites
  (* Memory hazards: write/read, read/write and write/write on
     overlapping ranges. *)
  || ranges_overlap e.mem_write l.mem_read
  || ranges_overlap e.mem_read l.mem_write
  || ranges_overlap e.mem_write l.mem_write

let opcode = function
  | V_rd _ -> "vrd"
  | V_wr _ -> "vwr"
  | V_fill _ -> "vfill"
  | M_rd _ -> "mrd"
  | Mvm _ -> "mvm"
  | Vv_add _ -> "vadd"
  | Vv_sub _ -> "vsub"
  | Vv_mul _ -> "vmul"
  | Act _ -> "act"
  | Nop -> "nop"
  | Loop _ -> "loop"
  | End_loop -> "endloop"
  | V_rd_i _ -> "vrdi"
  | V_wr_i _ -> "vwri"

let act_name = function
  | Sigmoid -> "sigmoid"
  | Tanh -> "tanh"
  | Relu -> "relu"
  | Identity -> "identity"

let act_of_name = function
  | "sigmoid" -> Some Sigmoid
  | "tanh" -> Some Tanh
  | "relu" -> Some Relu
  | "identity" -> Some Identity
  | _ -> None

let pp fmt i =
  match i with
  | V_rd { dst; addr; len } -> Format.fprintf fmt "vrd v%d, %d, %d" dst addr len
  | V_wr { src; addr; len } -> Format.fprintf fmt "vwr v%d, %d, %d" src addr len
  | V_fill { dst; len; value } -> Format.fprintf fmt "vfill v%d, %d, %g" dst len value
  | M_rd { dst; addr; rows; cols } ->
    Format.fprintf fmt "mrd m%d, %d, %d, %d" dst addr rows cols
  | Mvm { dst; mat; src } -> Format.fprintf fmt "mvm v%d, m%d, v%d" dst mat src
  | Vv_add { dst; a; b } -> Format.fprintf fmt "vadd v%d, v%d, v%d" dst a b
  | Vv_sub { dst; a; b } -> Format.fprintf fmt "vsub v%d, v%d, v%d" dst a b
  | Vv_mul { dst; a; b } -> Format.fprintf fmt "vmul v%d, v%d, v%d" dst a b
  | Act { dst; src; f } -> Format.fprintf fmt "act v%d, v%d, %s" dst src (act_name f)
  | Nop -> Format.fprintf fmt "nop"
  | Loop { count } -> Format.fprintf fmt "loop %d" count
  | End_loop -> Format.fprintf fmt "endloop"
  | V_rd_i { dst; base; stride; len } ->
    Format.fprintf fmt "vrdi v%d, %d, %d, %d" dst base stride len
  | V_wr_i { src; base; stride; len } ->
    Format.fprintf fmt "vwri v%d, %d, %d, %d" src base stride len
