open Mlv_rtl

let top_name = "bw_npu"
let control_name = "control_path"
let engine_name = "engine"
let control_companions = [ "fp16_to_bfp"; "vector_rf"; "writeback" ]

(* Small builders. *)
let in_p name width = { Ast.port_name = name; dir = Ast.Input; width }
let out_p name width = { Ast.port_name = name; dir = Ast.Output; width }
let net name width = { Ast.net_name = name; net_width = width }
let conn formal actual = { Ast.formal; actual }

let inst name master conns = { Ast.inst_name = name; master; conns }
let prim name p conns = inst name (Ast.M_prim p) conns

let modul ?(attrs = []) name ports nets instances =
  { Ast.mod_name = name; ports; nets; instances; attrs }

(* Clamp bus widths: the IR allows arbitrary widths but we keep the
   generated buses meaningful. *)

(* The dot-product unit: [lanes] narrow BFP multipliers, a balanced
   adder tree and an accumulator register, plus a private slice of
   weight memory. *)
let dot_unit (c : Config.t) =
  let mb = 4 in
  (* mantissa datapath width after Booth recoding *)
  let lanes = c.Config.lanes in
  let xw = lanes * mb in
  let sum_w = 16 in
  let nets = ref [] in
  let insts = ref [] in
  let add_net n w = nets := net n w :: !nets in
  let add_inst i = insts := i :: !insts in
  (* weight memory: one row of weights per address *)
  add_net "wrow" xw;
  add_inst
    (prim "wmem"
       (Ast.P_ram { words = 256; width = xw })
       [
         conn "waddr" "waddr";
         conn "wdata" "wdata";
         conn "wen" "wen";
         conn "raddr" "raddr";
         conn "rdata" "wrow";
       ]);
  (* per-lane multiply *)
  for l = 0 to lanes - 1 do
    let xs = Printf.sprintf "xs%d" l and ws = Printf.sprintf "ws%d" l in
    let p = Printf.sprintf "prod%d" l in
    add_net xs mb;
    add_net ws mb;
    add_net p mb;
    add_inst
      (prim
         (Printf.sprintf "slx%d" l)
         (Ast.P_slice { width = xw; lo = l * mb; out_width = mb })
         [ conn "a" "x"; conn "o" xs ]);
    add_inst
      (prim
         (Printf.sprintf "slw%d" l)
         (Ast.P_slice { width = xw; lo = l * mb; out_width = mb })
         [ conn "a" "wrow"; conn "o" ws ]);
    add_inst
      (prim (Printf.sprintf "mul%d" l) (Ast.P_mul mb)
         [ conn "a" xs; conn "b" ws; conn "o" p ])
  done;
  (* balanced adder tree over widened products *)
  let widen l =
    let src = Printf.sprintf "prod%d" l in
    let dst = Printf.sprintf "wide%d" l in
    add_net dst sum_w;
    add_net (dst ^ "_pad") (sum_w - mb);
    add_inst
      (prim
         (Printf.sprintf "pad%d" l)
         (Ast.P_const { width = sum_w - mb; value = 0 })
         [ conn "o" (dst ^ "_pad") ]);
    add_inst
      (prim
         (Printf.sprintf "cat%d" l)
         (Ast.P_concat { wa = sum_w - mb; wb = mb })
         [ conn "a" (dst ^ "_pad"); conn "b" src; conn "o" dst ]);
    dst
  in
  let level = ref (List.init lanes widen) in
  let tree_idx = ref 0 in
  while List.length !level > 1 do
    let rec pair = function
      | a :: b :: rest ->
        let o = Printf.sprintf "sum%d" !tree_idx in
        incr tree_idx;
        add_net o sum_w;
        add_inst
          (prim (Printf.sprintf "addt%d" !tree_idx) (Ast.P_add sum_w)
             [ conn "a" a; conn "b" b; conn "o" o ]);
        o :: pair rest
      | rest -> rest
    in
    level := pair !level
  done;
  let tree_out = List.hd !level in
  (* accumulate across column blocks *)
  add_net "acc_next" sum_w;
  add_net "acc_q" sum_w;
  add_net "acc_clr" sum_w;
  add_net "zero16" sum_w;
  add_inst (prim "zeroc" (Ast.P_const { width = sum_w; value = 0 }) [ conn "o" "zero16" ]);
  add_inst
    (prim "accmux" (Ast.P_mux sum_w)
       [ conn "sel" "clr"; conn "a" "zero16"; conn "b" "acc_q"; conn "o" "acc_clr" ]);
  add_inst
    (prim "accadd" (Ast.P_add sum_w)
       [ conn "a" "acc_clr"; conn "b" tree_out; conn "o" "acc_next" ]);
  add_inst (prim "accreg" (Ast.P_reg sum_w) [ conn "d" "acc_next"; conn "q" "acc_q" ]);
  add_inst
    (prim "outsl"
       (Ast.P_slice { width = sum_w; lo = 0; out_width = sum_w })
       [ conn "a" "acc_q"; conn "o" "dot" ]);
  let waddr_bits = 8 and raddr_bits = 8 in
  modul "dot_unit"
    [
      in_p "x" xw;
      in_p "waddr" waddr_bits;
      in_p "wdata" xw;
      in_p "wen" 1;
      in_p "raddr" raddr_bits;
      in_p "clr" 1;
      out_p "dot" sum_w;
    ]
    (List.rev !nets) (List.rev !insts)

(* The per-engine accumulator: registers each dot unit result. *)
let accum (c : Config.t) =
  let rows = c.Config.rows_per_tile in
  let w = 16 in
  let nets = ref [] and insts = ref [] in
  let outs =
    List.init rows (fun r ->
        let q = Printf.sprintf "q%d" r in
        nets := net q w :: !nets;
        insts :=
          prim (Printf.sprintf "r%d" r) (Ast.P_reg w)
            [ conn "d" (Printf.sprintf "d%d" r); conn "q" q ]
          :: !insts;
        q)
  in
  (* concat into the output bus *)
  let rec chain acc_net acc_w idx = function
    | [] -> (acc_net, acc_w)
    | q :: rest ->
      let o = Printf.sprintf "cat_o%d" idx in
      nets := net o (acc_w + w) :: !nets;
      insts :=
        prim
          (Printf.sprintf "cat%d" idx)
          (Ast.P_concat { wa = acc_w; wb = w })
          [ conn "a" acc_net; conn "b" q; conn "o" o ]
        :: !insts;
      chain o (acc_w + w) (idx + 1) rest
  in
  let bus, bus_w =
    match outs with
    | [] -> assert false
    | first :: rest -> chain first w 0 rest
  in
  insts :=
    prim "outsl"
      (Ast.P_slice { width = bus_w; lo = 0; out_width = bus_w })
      [ conn "a" bus; conn "o" "row_bus" ]
    :: !insts;
  modul "accum"
    (List.init rows (fun r -> in_p (Printf.sprintf "d%d" r) w)
    @ [ out_p "row_bus" (rows * w) ])
    (List.rev !nets) (List.rev !insts)

(* The float16 multi-function slice: two multiplier banks (vector
   scale and pointwise multiply), an adder bank, and a table-driven
   activation unit. *)
let mfu_slice (c : Config.t) =
  let rows = c.Config.rows_per_tile in
  let w = 16 in
  let bus = rows * w in
  let nets = ref [] and insts = ref [] in
  let add_net n wd = nets := net n wd :: !nets in
  let add_inst i = insts := i :: !insts in
  let lane_outputs =
    List.init rows (fun r ->
        let x = Printf.sprintf "x%d" r in
        add_net x w;
        add_inst
          (prim
             (Printf.sprintf "slx%d" r)
             (Ast.P_slice { width = bus; lo = r * w; out_width = w })
             [ conn "a" "in_bus"; conn "o" x ]);
        let o = Printf.sprintf "o%d" r in
        let m1 = Printf.sprintf "m1_%d" r and m2 = Printf.sprintf "m2_%d" r in
        let s = Printf.sprintf "s_%d" r and a = Printf.sprintf "a_%d" r in
        add_net m1 w;
        add_net m2 w;
        add_net s w;
        add_net a w;
        add_net o w;
        add_inst
          (prim (Printf.sprintf "mul1_%d" r) (Ast.P_mul w)
             [ conn "a" x; conn "b" "scale"; conn "o" m1 ]);
        add_inst
          (prim (Printf.sprintf "mul2_%d" r) (Ast.P_mul w)
             [ conn "a" m1; conn "b" x; conn "o" m2 ]);
        add_inst
          (prim (Printf.sprintf "add_%d" r) (Ast.P_add w)
             [ conn "a" m2; conn "b" "bias"; conn "o" s ]);
        let addr = Printf.sprintf "addr_%d" r in
        add_net addr 10;
        add_inst
          (prim (Printf.sprintf "adsl_%d" r)
             (Ast.P_slice { width = w; lo = 0; out_width = 10 })
             [ conn "a" s; conn "o" addr ]);
        add_inst
          (prim (Printf.sprintf "act_%d" r)
             (Ast.P_rom { words = 1024; width = w })
             [ conn "raddr" addr; conn "rdata" a ]);
        add_inst
          (prim (Printf.sprintf "sel_%d" r) (Ast.P_mux w)
             [ conn "sel" "use_act"; conn "a" a; conn "b" s; conn "o" o ]);
        o)
  in
  (* concat lanes back into the output bus *)
  let rec chain acc_net acc_w idx = function
    | [] -> (acc_net, acc_w)
    | q :: rest ->
      let o = Printf.sprintf "cat_o%d" idx in
      add_net o (acc_w + w);
      add_inst
        (prim
           (Printf.sprintf "cat%d" idx)
           (Ast.P_concat { wa = acc_w; wb = w })
           [ conn "a" acc_net; conn "b" q; conn "o" o ]);
      chain o (acc_w + w) (idx + 1) rest
  in
  let out_net, out_w =
    match lane_outputs with
    | [] -> assert false
    | first :: rest -> chain first w 0 rest
  in
  add_inst
    (prim "outsl"
       (Ast.P_slice { width = out_w; lo = 0; out_width = out_w })
       [ conn "a" out_net; conn "o" "out_bus" ]);
  modul "mfu_slice"
    [
      in_p "in_bus" bus;
      in_p "scale" w;
      in_p "bias" w;
      in_p "use_act" 1;
      out_p "out_bus" bus;
    ]
    (List.rev !nets) (List.rev !insts)

(* One engine: data-parallel dot units under a pipeline with the
   accumulator and the MFU slice. *)
let engine (c : Config.t) =
  let mb = 4 in
  let rows = c.Config.rows_per_tile in
  let lanes = c.Config.lanes in
  let xw = lanes * mb in
  let bus = rows * 16 in
  let nets = ref [] and insts = ref [] in
  let dot_conns r =
    let d = Printf.sprintf "dot%d" r in
    nets := net d 16 :: !nets;
    insts :=
      inst
        (Printf.sprintf "du%d" r)
        (Ast.M_module "dot_unit")
        [
          conn "x" "x";
          conn "waddr" "waddr";
          conn "wdata" "wdata";
          conn "wen" "wen";
          conn "raddr" "raddr";
          conn "clr" "clr";
          conn "dot" d;
        ]
      :: !insts;
    d
  in
  let dots = List.init rows dot_conns in
  nets := net "row_bus" bus :: !nets;
  insts :=
    inst "acc" (Ast.M_module "accum")
      (List.mapi (fun r d -> conn (Printf.sprintf "d%d" r) d) dots
      @ [ conn "row_bus" "row_bus" ])
    :: !insts;
  insts :=
    inst "mfu" (Ast.M_module "mfu_slice")
      [
        conn "in_bus" "row_bus";
        conn "scale" "scale";
        conn "bias" "bias";
        conn "use_act" "use_act";
        conn "out_bus" "out_bus";
      ]
    :: !insts;
  modul engine_name
    [
      in_p "x" xw;
      in_p "waddr" 8;
      in_p "wdata" xw;
      in_p "wen" 1;
      in_p "raddr" 8;
      in_p "clr" 1;
      in_p "scale" 16;
      in_p "bias" 16;
      in_p "use_act" 1;
      out_p "out_bus" bus;
    ]
    (List.rev !nets) (List.rev !insts)

(* Format converter: fp16 vector bus -> BFP mantissa bus. *)
let fp16_to_bfp (c : Config.t) =
  let mb = 4 in
  let lanes = c.Config.lanes in
  let in_w = lanes * 16 and out_w = lanes * mb in
  let nets = ref [] and insts = ref [] in
  let pieces =
    List.init lanes (fun l ->
        let s = Printf.sprintf "m%d" l in
        nets := net s mb :: !nets;
        insts :=
          prim (Printf.sprintf "sl%d" l)
            (Ast.P_slice { width = in_w; lo = l * 16; out_width = mb })
            [ conn "a" "in_bus"; conn "o" s ]
          :: !insts;
        s)
  in
  let rec chain acc_net acc_w idx = function
    | [] -> (acc_net, acc_w)
    | q :: rest ->
      let o = Printf.sprintf "c%d" idx in
      nets := net o (acc_w + mb) :: !nets;
      insts :=
        prim
          (Printf.sprintf "cat%d" idx)
          (Ast.P_concat { wa = acc_w; wb = mb })
          [ conn "a" acc_net; conn "b" q; conn "o" o ]
        :: !insts;
      chain o (acc_w + mb) (idx + 1) rest
  in
  let out_net, _ =
    match pieces with [] -> assert false | f :: r -> chain f mb 0 r
  in
  nets := net "reg_in" out_w :: !nets;
  insts :=
    prim "alias"
      (Ast.P_slice { width = out_w; lo = 0; out_width = out_w })
      [ conn "a" out_net; conn "o" "reg_in" ]
    :: !insts;
  insts := prim "oreg" (Ast.P_reg out_w) [ conn "d" "reg_in"; conn "q" "out_bus" ] :: !insts;
  modul "fp16_to_bfp"
    [ in_p "in_bus" in_w; out_p "out_bus" out_w ]
    (List.rev !nets) (List.rev !insts)

(* Vector register file. *)
let addr_bits_for words =
  max 1 (int_of_float (ceil (log (float_of_int words) /. log 2.0)))

let vector_rf (c : Config.t) =
  let w = c.Config.lanes * 16 in
  let addr_bits = addr_bits_for c.Config.vrf_words in
  modul "vector_rf"
    [
      in_p "waddr" addr_bits;
      in_p "wdata" w;
      in_p "wen" 1;
      in_p "raddr" addr_bits;
      out_p "rdata" w;
    ]
    []
    [
      prim "mem"
        (Ast.P_ram { words = c.Config.vrf_words; width = w })
        [
          conn "waddr" "waddr";
          conn "wdata" "wdata";
          conn "wen" "wen";
          conn "raddr" "raddr";
          conn "rdata" "rdata";
        ];
    ]

(* Result collection from all engines back to one VRF write bus. *)
let writeback (c : Config.t) =
  let rows = c.Config.rows_per_tile in
  let tiles = c.Config.tiles in
  let bus = rows * 16 in
  let nets = ref [] and insts = ref [] in
  let rec chain acc_net acc_w idx = function
    | [] -> (acc_net, acc_w)
    | q :: rest ->
      let o = Printf.sprintf "c%d" idx in
      nets := net o (acc_w + bus) :: !nets;
      insts :=
        prim
          (Printf.sprintf "cat%d" idx)
          (Ast.P_concat { wa = acc_w; wb = bus })
          [ conn "a" acc_net; conn "b" q; conn "o" o ]
        :: !insts;
      chain o (acc_w + bus) (idx + 1) rest
  in
  let ins = List.init tiles (fun t -> Printf.sprintf "in%d" t) in
  let out_net, out_w =
    match ins with [] -> assert false | f :: r -> chain f bus 0 r
  in
  nets := net "reg_in" out_w :: !nets;
  insts :=
    prim "alias"
      (Ast.P_slice { width = out_w; lo = 0; out_width = out_w })
      [ conn "a" out_net; conn "o" "reg_in" ]
    :: !insts;
  insts :=
    prim "oreg" (Ast.P_reg out_w) [ conn "d" "reg_in"; conn "q" "out_bus" ] :: !insts;
  modul "writeback"
    (List.map (fun n -> in_p n bus) ins @ [ out_p "out_bus" (tiles * bus) ])
    (List.rev !nets) (List.rev !insts)

(* Control path: instruction buffer, fetch counter, decoder. *)
let control_path (c : Config.t) =
  let iw = 64 in
  let pc_bits = addr_bits_for c.Config.instr_buffer_words in
  let nets = ref [] and insts = ref [] in
  let add_net n w = nets := net n w :: !nets in
  let add_inst i = insts := i :: !insts in
  add_net "pc_q" pc_bits;
  add_net "pc_next" pc_bits;
  add_net "one" pc_bits;
  add_net "instr" iw;
  add_inst (prim "onec" (Ast.P_const { width = pc_bits; value = 1 }) [ conn "o" "one" ]);
  add_inst
    (prim "pcadd" (Ast.P_add pc_bits)
       [ conn "a" "pc_q"; conn "b" "one"; conn "o" "pc_next" ]);
  add_inst (prim "pcreg" (Ast.P_reg pc_bits) [ conn "d" "pc_next"; conn "q" "pc_q" ]);
  add_inst
    (prim "ibuf"
       (Ast.P_rom { words = c.Config.instr_buffer_words; width = iw })
       [ conn "raddr" "pc_q"; conn "rdata" "instr" ]);
  (* decode fields *)
  let field name lo width =
    add_net name width;
    add_inst
      (prim ("f_" ^ name)
         (Ast.P_slice { width = iw; lo; out_width = width })
         [ conn "a" "instr"; conn "o" name ])
  in
  field "opc" 58 6;
  field "f_waddr" 0 8;
  field "f_raddr" 8 8;
  field "f_scale" 16 16;
  field "f_bias" 32 16;
  (* opcode comparators driving the datapath strobes *)
  let strobe name code =
    let cn = name ^ "_code" in
    add_net cn 6;
    add_net name 1;
    add_inst (prim (name ^ "_c") (Ast.P_const { width = 6; value = code }) [ conn "o" cn ]);
    add_inst
      (prim (name ^ "_eq") (Ast.P_cmp_eq 6)
         [ conn "a" "opc"; conn "b" cn; conn "o" name ])
  in
  strobe "s_wen" 1;
  strobe "s_clr" 2;
  strobe "s_act" 3;
  (* registered control outputs *)
  let reg_out out src w =
    let d = out ^ "_d" in
    add_net d w;
    add_inst
      (prim (out ^ "_sl")
         (Ast.P_slice { width = w; lo = 0; out_width = w })
         [ conn "a" src; conn "o" d ]);
    add_inst (prim (out ^ "_r") (Ast.P_reg w) [ conn "d" d; conn "q" out ])
  in
  reg_out "wen" "s_wen" 1;
  reg_out "clr" "s_clr" 1;
  reg_out "use_act" "s_act" 1;
  reg_out "waddr" "f_waddr" 8;
  reg_out "raddr" "f_raddr" 8;
  reg_out "scale" "f_scale" 16;
  reg_out "bias" "f_bias" 16;
  modul ~attrs:[ "control_path" ] control_name
    [
      out_p "wen" 1;
      out_p "clr" 1;
      out_p "use_act" 1;
      out_p "waddr" 8;
      out_p "raddr" 8;
      out_p "scale" 16;
      out_p "bias" 16;
    ]
    (List.rev !nets) (List.rev !insts)

let top (c : Config.t) =
  let mb = 4 in
  let lanes = c.Config.lanes in
  let rows = c.Config.rows_per_tile in
  let tiles = c.Config.tiles in
  let xw = lanes * mb in
  let vrf_w = lanes * 16 in
  let ebus = rows * 16 in
  let nets = ref [] and insts = ref [] in
  let add_net n w = nets := net n w :: !nets in
  let add_inst i = insts := i :: !insts in
  List.iter
    (fun (n, w) -> add_net n w)
    [
      ("wen", 1);
      ("clr", 1);
      ("use_act", 1);
      ("c_waddr", 8);
      ("c_raddr", 8);
      ("scale", 16);
      ("bias", 16);
      ("vrf_rdata", vrf_w);
      ("xbus", xw);
      ("wb_bus", tiles * ebus);
      ("wb_slice", vrf_w);
    ];
  add_inst
    (inst "ctl" (Ast.M_module control_name)
       [
         conn "wen" "wen";
         conn "clr" "clr";
         conn "use_act" "use_act";
         conn "waddr" "c_waddr";
         conn "raddr" "c_raddr";
         conn "scale" "scale";
         conn "bias" "bias";
       ]);
  add_inst
    (inst "vrf" (Ast.M_module "vector_rf")
       [
         conn "waddr" "vrf_waddr";
         conn "wdata" "wb_slice";
         conn "wen" "host_wen";
         conn "raddr" "vrf_raddr";
         conn "rdata" "vrf_rdata";
       ]);
  add_inst
    (inst "conv" (Ast.M_module "fp16_to_bfp")
       [ conn "in_bus" "vrf_rdata"; conn "out_bus" "xbus" ]);
  for t = 0 to tiles - 1 do
    let o = Printf.sprintf "ebus%d" t in
    add_net o ebus;
    add_inst
      (inst
         (Printf.sprintf "eng%d" t)
         (Ast.M_module engine_name)
         [
           conn "x" "xbus";
           conn "waddr" "c_waddr";
           conn "wdata" "host_wdata";
           conn "wen" "wen";
           conn "raddr" "c_raddr";
           conn "clr" "clr";
           conn "scale" "scale";
           conn "bias" "bias";
           conn "use_act" "use_act";
           conn "out_bus" o;
         ])
  done;
  add_inst
    (inst "wb" (Ast.M_module "writeback")
       (List.init tiles (fun t -> conn (Printf.sprintf "in%d" t) (Printf.sprintf "ebus%d" t))
       @ [ conn "out_bus" "wb_bus" ]));
  (* Slice (or zero-pad, for small instances) the writeback bus down
     to one VRF word. *)
  if tiles * ebus >= vrf_w then
    add_inst
      (prim "wbsl"
         (Ast.P_slice { width = tiles * ebus; lo = 0; out_width = vrf_w })
         [ conn "a" "wb_bus"; conn "o" "wb_slice" ])
  else begin
    let pad = vrf_w - (tiles * ebus) in
    add_net "wb_pad" pad;
    add_inst (prim "wbpad" (Ast.P_const { width = pad; value = 0 }) [ conn "o" "wb_pad" ]);
    add_inst
      (prim "wbcat"
         (Ast.P_concat { wa = pad; wb = tiles * ebus })
         [ conn "a" "wb_pad"; conn "b" "wb_bus"; conn "o" "wb_slice" ])
  end;
  modul top_name
    [
      in_p "vrf_waddr" (addr_bits_for c.Config.vrf_words);
      in_p "vrf_raddr" (addr_bits_for c.Config.vrf_words);
      in_p "host_wen" 1;
      in_p "host_wdata" xw;
      out_p "result" vrf_w;
    ]
    (List.rev !nets)
    (List.rev !insts
    @ [
        prim "res"
          (Ast.P_slice { width = vrf_w; lo = 0; out_width = vrf_w })
          [ conn "a" "vrf_rdata"; conn "o" "result" ];
      ])

(* Modules whose generator reads no [tiles], keyed by generator name
   and by the configuration with [tiles] blanked. *)
type shared = (string * Config.t, Ast.module_def) Hashtbl.t

let shared () : shared = Hashtbl.create 8

let generate ?shared (c : Config.t) =
  let tile_independent name gen =
    match shared with
    | None -> gen c
    | Some tbl -> (
      let key = (name, { c with Config.tiles = 0 }) in
      match Hashtbl.find_opt tbl key with
      | Some m -> m
      | None ->
        let m = gen c in
        Hashtbl.add tbl key m;
        m)
  in
  Design.of_modules
    [
      tile_independent "dot_unit" dot_unit;
      tile_independent "accum" accum;
      tile_independent "mfu_slice" mfu_slice;
      tile_independent "engine" engine;
      tile_independent "fp16_to_bfp" fp16_to_bfp;
      tile_independent "vector_rf" vector_rf;
      writeback c;
      tile_independent "control_path" control_path;
      top c;
    ]
