(** Structural RTL intermediate representation.

    The decomposing tool of the framework (paper §2.2.1) consumes RTL
    rather than HLS or netlists: RTL is FPGA-independent, so the
    extracted parallel patterns can be reused across device types.
    This IR models exactly what the tool needs: a module hierarchy,
    port connectivity, and a fixed set of datapath primitives that
    carry enough information for resource estimation and
    random-simulation equivalence checking. *)

(** Port direction. *)
type direction = Input | Output

(** A module port: name, direction and bus width in bits. *)
type port = { port_name : string; dir : direction; width : int }

(** Leaf primitives.  Widths are in bits; they drive both the
    word-level simulator in [Mlv_eqcheck] and the resource model. *)
type prim =
  | P_and of int  (** bitwise and, width *)
  | P_or of int  (** bitwise or *)
  | P_xor of int  (** bitwise xor *)
  | P_not of int  (** bitwise not *)
  | P_mux of int  (** 2:1 mux: sel, a, b -> o *)
  | P_add of int  (** adder: a, b -> o *)
  | P_sub of int  (** subtractor *)
  | P_mul of int  (** multiplier (maps to DSP) *)
  | P_mac of int  (** multiply-accumulate (DSP, registered) *)
  | P_reg of int  (** flip-flop bank: d -> q *)
  | P_ram of { words : int; width : int }
      (** synchronous RAM: waddr, wdata, wen, raddr -> rdata *)
  | P_rom of { words : int; width : int }  (** raddr -> rdata *)
  | P_const of { width : int; value : int }  (** constant driver -> o *)
  | P_concat of { wa : int; wb : int }  (** a, b -> o = {a, b} *)
  | P_slice of { width : int; lo : int; out_width : int }
      (** a -> o = a[lo +: out_width] *)
  | P_cmp_lt of int  (** a, b -> o (1 bit) *)
  | P_cmp_eq of int  (** a, b -> o (1 bit) *)

(** What an instance instantiates: a user-defined module by name, or a
    primitive. *)
type master = M_module of string | M_prim of prim

(** One named port binding: [formal] is the master's port, [actual]
    the net in the enclosing module. *)
type conn = { formal : string; actual : string }

(** A module instance. *)
type instance = { inst_name : string; master : master; conns : conn list }

(** A net (wire) declaration. *)
type net = { net_name : string; net_width : int }

(** A module definition.  [attrs] carries free-form markers; the
    decomposer recognises ["control_path"] (paper §2.2.1: the designer
    marks control-path modules by name). *)
type module_def = {
  mod_name : string;
  ports : port list;
  nets : net list;
  instances : instance list;
  attrs : string list;
}

(** [prim_name p] is the canonical instance-master name used in the
    textual syntax, e.g. [P_add _ -> "mlv_add"]. *)
val prim_name : prim -> string

(** [prim_ports p] lists the primitive's ports in positional order. *)
val prim_ports : prim -> port list

(** [prim_is_sequential p] is true for state-holding primitives
    (registers, RAM/ROM, MAC). *)
val prim_is_sequential : prim -> bool


(** [net_width m name] is the declared width of net or port [name] in
    [m].
    @raise Not_found if no such net or port exists. *)
val net_width : module_def -> string -> int

(** [width_table m] maps every net and port name of [m] to the width
    [net_width m] gives it (a net shadows a port of the same name), for
    callers that look up many names in one module. *)
val width_table : module_def -> (string, int) Hashtbl.t

(** [is_basic m] is true when [m] instantiates no user modules —
    the paper's definition of a basic module. *)
val is_basic : module_def -> bool

