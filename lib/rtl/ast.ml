type direction = Input | Output
type port = { port_name : string; dir : direction; width : int }

type prim =
  | P_and of int
  | P_or of int
  | P_xor of int
  | P_not of int
  | P_mux of int
  | P_add of int
  | P_sub of int
  | P_mul of int
  | P_mac of int
  | P_reg of int
  | P_ram of { words : int; width : int }
  | P_rom of { words : int; width : int }
  | P_const of { width : int; value : int }
  | P_concat of { wa : int; wb : int }
  | P_slice of { width : int; lo : int; out_width : int }
  | P_cmp_lt of int
  | P_cmp_eq of int

type master = M_module of string | M_prim of prim
type conn = { formal : string; actual : string }
type instance = { inst_name : string; master : master; conns : conn list }
type net = { net_name : string; net_width : int }

type module_def = {
  mod_name : string;
  ports : port list;
  nets : net list;
  instances : instance list;
  attrs : string list;
}

let prim_name = function
  | P_and _ -> "mlv_and"
  | P_or _ -> "mlv_or"
  | P_xor _ -> "mlv_xor"
  | P_not _ -> "mlv_not"
  | P_mux _ -> "mlv_mux"
  | P_add _ -> "mlv_add"
  | P_sub _ -> "mlv_sub"
  | P_mul _ -> "mlv_mul"
  | P_mac _ -> "mlv_mac"
  | P_reg _ -> "mlv_reg"
  | P_ram _ -> "mlv_ram"
  | P_rom _ -> "mlv_rom"
  | P_const _ -> "mlv_const"
  | P_concat _ -> "mlv_concat"
  | P_slice _ -> "mlv_slice"
  | P_cmp_lt _ -> "mlv_cmp_lt"
  | P_cmp_eq _ -> "mlv_cmp_eq"

let in_port name width = { port_name = name; dir = Input; width }
let out_port name width = { port_name = name; dir = Output; width }

let prim_ports = function
  | P_and w | P_or w | P_xor w -> [ in_port "a" w; in_port "b" w; out_port "o" w ]
  | P_not w -> [ in_port "a" w; out_port "o" w ]
  | P_mux w -> [ in_port "sel" 1; in_port "a" w; in_port "b" w; out_port "o" w ]
  | P_add w | P_sub w | P_mul w -> [ in_port "a" w; in_port "b" w; out_port "o" w ]
  | P_mac w -> [ in_port "a" w; in_port "b" w; in_port "clr" 1; out_port "o" (2 * w) ]
  | P_reg w -> [ in_port "d" w; out_port "q" w ]
  | P_ram { words; width } ->
    let addr_bits = max 1 (int_of_float (ceil (log (float_of_int words) /. log 2.0))) in
    [
      in_port "waddr" addr_bits;
      in_port "wdata" width;
      in_port "wen" 1;
      in_port "raddr" addr_bits;
      out_port "rdata" width;
    ]
  | P_rom { words; width } ->
    let addr_bits = max 1 (int_of_float (ceil (log (float_of_int words) /. log 2.0))) in
    [ in_port "raddr" addr_bits; out_port "rdata" width ]
  | P_const { width; _ } -> [ out_port "o" width ]
  | P_concat { wa; wb } -> [ in_port "a" wa; in_port "b" wb; out_port "o" (wa + wb) ]
  | P_slice { width; out_width; _ } -> [ in_port "a" width; out_port "o" out_width ]
  | P_cmp_lt w | P_cmp_eq w -> [ in_port "a" w; in_port "b" w; out_port "o" 1 ]

let prim_is_sequential = function
  | P_reg _ | P_ram _ | P_rom _ | P_mac _ -> true
  | P_and _ | P_or _ | P_xor _ | P_not _ | P_mux _ | P_add _ | P_sub _ | P_mul _
  | P_const _ | P_concat _ | P_slice _ | P_cmp_lt _ | P_cmp_eq _ -> false

let find_port m name = List.find_opt (fun p -> p.port_name = name) m.ports

let net_width m name =
  match List.find_opt (fun n -> n.net_name = name) m.nets with
  | Some n -> n.net_width
  | None -> (
    match find_port m name with
    | Some p -> p.width
    | None -> raise Not_found)

(* Filled in reverse, so the first declaration of a name wins, as in
   [net_width]; nets after ports, so a net shadows a port. *)
let width_table m =
  let widths = Hashtbl.create (List.length m.ports + List.length m.nets) in
  List.iter (fun p -> Hashtbl.replace widths p.port_name p.width) (List.rev m.ports);
  List.iter (fun n -> Hashtbl.replace widths n.net_name n.net_width) (List.rev m.nets);
  widths

let is_basic m =
  List.for_all
    (fun inst -> match inst.master with M_module _ -> false | M_prim _ -> true)
    m.instances
