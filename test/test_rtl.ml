(* Tests for the RTL substrate: AST helpers, parser, printer, design
   table, connectivity graph and extraction. *)

module Ast = Mlv_rtl.Ast
module Design = Mlv_rtl.Design
module Parser = Mlv_rtl.Parser
module Printer = Mlv_rtl.Printer
module Graph = Mlv_rtl.Graph
module Extract = Mlv_rtl.Extract
module Transform = Mlv_rtl.Transform
module Stats = Mlv_rtl.Stats

let parse_ok src =
  match Parser.parse_string src with
  | Ok d -> d
  | Error msg -> Alcotest.failf "parse error: %s" msg

let lane_pair_src =
  {|
module lane (x, y);
  input [7:0] x;
  output [7:0] y;
  wire [7:0] t;
  mlv_add a0 (.a(x), .b(x), .o(t));
  mlv_reg r0 (.d(t), .q(y));
endmodule

module top (in0, in1, out0, out1);
  input [7:0] in0;
  input [7:0] in1;
  output [7:0] out0;
  output [7:0] out1;
  lane l0 (.x(in0), .y(out0));
  lane l1 (.x(in1), .y(out1));
endmodule
|}

(* ---------------- Ast ---------------- *)

let test_ast_prim_ports () =
  let ports = Ast.prim_ports (Ast.P_add 8) in
  Alcotest.(check int) "3 ports" 3 (List.length ports);
  let o = List.find (fun (p : Ast.port) -> p.port_name = "o") ports in
  Alcotest.(check int) "width" 8 o.width;
  Alcotest.(check bool) "output" true (o.dir = Ast.Output)

let test_ast_prim_sequential () =
  Alcotest.(check bool) "reg" true (Ast.prim_is_sequential (Ast.P_reg 4));
  Alcotest.(check bool) "ram" true
    (Ast.prim_is_sequential (Ast.P_ram { words = 16; width = 8 }));
  Alcotest.(check bool) "add" false (Ast.prim_is_sequential (Ast.P_add 4))

let test_ast_is_basic () =
  let d = parse_ok lane_pair_src in
  Alcotest.(check bool) "lane basic" true (Ast.is_basic (Design.find_exn d "lane"));
  Alcotest.(check bool) "top not basic" false (Ast.is_basic (Design.find_exn d "top"))

let test_ast_net_width () =
  let d = parse_ok lane_pair_src in
  let lane = Design.find_exn d "lane" in
  Alcotest.(check int) "port width" 8 (Ast.net_width lane "x");
  Alcotest.(check int) "wire width" 8 (Ast.net_width lane "t");
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Ast.net_width lane "nonexistent"))

let test_ast_width_table () =
  (* Duplicate names included: the table must answer as [net_width]. *)
  let m =
    {
      Ast.mod_name = "m";
      ports =
        [
          { Ast.port_name = "a"; dir = Ast.Input; width = 8 };
          { Ast.port_name = "b"; dir = Ast.Input; width = 5 };
          { Ast.port_name = "b"; dir = Ast.Output; width = 7 };
        ];
      nets = [ { Ast.net_name = "a"; net_width = 4 }; { Ast.net_name = "a"; net_width = 6 } ];
      instances = [];
      attrs = [];
    }
  in
  let widths = Ast.width_table m in
  Alcotest.(check int) "names" 2 (Hashtbl.length widths);
  List.iter
    (fun name ->
      Alcotest.(check (option int)) name (Some (Ast.net_width m name))
        (Hashtbl.find_opt widths name))
    [ "a"; "b" ]

(* ---------------- Parser ---------------- *)

let test_parse_basic () =
  let d = parse_ok lane_pair_src in
  Alcotest.(check int) "two modules" 2 (List.length (Design.modules d));
  Alcotest.(check (list string)) "no validation errors" [] (Design.validate d)

let test_parse_attributes () =
  let src = "(* control_path *)\nmodule ctl (x);\n input x;\nendmodule\n" in
  let d = parse_ok src in
  let m = Design.find_exn d "ctl" in
  Alcotest.(check (list string)) "attr" [ "control_path" ] m.Ast.attrs

let alu_src =
  {|
module alu (a, b, sel, o);
  input [15:0] a;
  input [15:0] b;
  input sel;
  output [15:0] o;
  assign o = sel ? a + b : a * b;
endmodule
|}

let test_parse_assign_lowering () =
  let d = parse_ok alu_src in
  Alcotest.(check (list string)) "valid" [] (Design.validate d);
  let census = Design.prim_census d "alu" in
  let has p = List.exists (fun (q, _) -> q = p) census in
  Alcotest.(check bool) "has add" true (has (Ast.P_add 16));
  Alcotest.(check bool) "has mul" true (has (Ast.P_mul 16));
  Alcotest.(check bool) "has mux" true (has (Ast.P_mux 16))

let test_parse_sized_literals () =
  let src =
    {|
module c (o);
  output [7:0] o;
  assign o = 8'hFF;
endmodule
|}
  in
  let d = parse_ok src in
  let census = Design.prim_census d "c" in
  Alcotest.(check bool) "const 255" true
    (List.exists (fun (p, _) -> p = Ast.P_const { width = 8; value = 255 }) census)

let concat_slice_src =
  {|
module cs (a, b, hi, wide);
  input [7:0] a;
  input [7:0] b;
  output [3:0] hi;
  output [15:0] wide;
  assign wide = {a, b};
  assign hi = a[7:4];
endmodule
|}

let test_parse_concat_slice () =
  let d = parse_ok concat_slice_src in
  Alcotest.(check (list string)) "valid" [] (Design.validate d)

let test_parse_errors () =
  (match Parser.parse_string "module m (x; endmodule" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad header");
  (match Parser.parse_string "module m (x);\n input x;\n bogus syntax here\nendmodule" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted bad body");
  match Parser.parse_string "module m ();\n wire [3:0] w;\n assign w = q + 1;\nendmodule" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown net"

let test_parse_duplicate_module () =
  let src = "module m ();\nendmodule\nmodule m ();\nendmodule" in
  match Parser.parse_string src with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted duplicate"

let test_printer_roundtrip () =
  let d = parse_ok lane_pair_src in
  let text = Printer.design_to_string d in
  let d2 = parse_ok text in
  Alcotest.(check string) "stable" text (Printer.design_to_string d2);
  Alcotest.(check int) "same modules" 2 (List.length (Design.modules d2))

(* ---------------- Design ---------------- *)

let test_design_top () =
  let d = parse_ok lane_pair_src in
  Alcotest.(check string) "top" "top" (Design.top d).Ast.mod_name

let test_design_topo_order () =
  let d = parse_ok lane_pair_src in
  Alcotest.(check (list string)) "leaves first" [ "lane"; "top" ] (Design.topo_order d)

let test_design_children () =
  let d = parse_ok lane_pair_src in
  Alcotest.(check (list string)) "children" [ "lane" ] (Design.children d "top");
  Alcotest.(check (list string)) "leaf" [] (Design.children d "lane")

let test_design_census () =
  let d = parse_ok lane_pair_src in
  let census = Design.prim_census d "top" in
  Alcotest.(check int) "two adders" 2 (List.assoc (Ast.P_add 8) census);
  Alcotest.(check int) "two regs" 2 (List.assoc (Ast.P_reg 8) census);
  Alcotest.(check int) "flat count" 4 (Design.flat_instance_count d "top")

let test_design_basic_modules () =
  let d = parse_ok lane_pair_src in
  Alcotest.(check (list string)) "basic" [ "lane" ] (Design.basic_modules d)

let test_design_validate_unknown_master () =
  let d =
    Design.of_modules
      [
        {
          Ast.mod_name = "m";
          ports = [];
          nets = [];
          instances =
            [ { Ast.inst_name = "u"; master = Ast.M_module "ghost"; conns = [] } ];
          attrs = [];
        };
      ]
  in
  Alcotest.(check bool) "catches ghost" true (Design.validate d <> [])

let test_design_validate_width_mismatch () =
  let src =
    {|
module m (a, o);
  input [7:0] a;
  output [3:0] o;
  mlv_not n0 (.a(a), .o(o));
endmodule
|}
  in
  (* mlv_not takes width from o (4) but a is 8 bits: mismatch. *)
  let d = parse_ok src in
  Alcotest.(check bool) "catches" true (Design.validate d <> [])

let test_design_validate_net_shadows_port () =
  (* A net named like a port shadows it: [a] is 4 bits inside [m]. *)
  let not_gate name w =
    {
      Ast.inst_name = name;
      master = Ast.M_prim (Ast.P_not w);
      conns = [ { Ast.formal = "a"; actual = "a" }; { Ast.formal = "o"; actual = "o" } ];
    }
  in
  let m instances =
    {
      Ast.mod_name = "m";
      ports =
        [
          { Ast.port_name = "a"; dir = Ast.Input; width = 8 };
          { Ast.port_name = "o"; dir = Ast.Output; width = 4 };
        ];
      nets = [ { Ast.net_name = "a"; net_width = 4 } ];
      instances;
      attrs = [];
    }
  in
  Alcotest.(check (list string))
    "the net's width binds" []
    (Design.validate (Design.of_modules [ m [ not_gate "n0" 4 ] ]));
  Alcotest.(check (list string))
    "the port's width does not"
    [
      "m.n8.a: width mismatch (formal 8, net a is 4)";
      "m.n8.o: width mismatch (formal 8, net o is 4)";
    ]
    (Design.validate (Design.of_modules [ m [ not_gate "n8" 8 ] ]))

let test_design_cycle_detection () =
  let inst name master =
    { Ast.inst_name = name; master = Ast.M_module master; conns = [] }
  in
  let m name child =
    { Ast.mod_name = name; ports = []; nets = []; instances = [ inst "u" child ]; attrs = [] }
  in
  let d = Design.of_modules [ m "a" "b"; m "b" "a" ] in
  Alcotest.(check bool) "cycle caught" true
    (try
       ignore (Design.topo_order d);
       false
     with Failure _ -> true)

(* ---------------- Graph ---------------- *)

let test_graph_edges () =
  let d = parse_ok lane_pair_src in
  let lane = Design.find_exn d "lane" in
  let g = Graph.build d lane in
  Alcotest.(check int) "two nodes" 2 (Graph.node_count g);
  let a0 = Option.get (Graph.index_of g "a0") in
  let r0 = Option.get (Graph.index_of g "r0") in
  Alcotest.(check int) "a0 -> r0 weight" 8 (Graph.edge_weight g a0 r0);
  Alcotest.(check int) "no back edge" 0 (Graph.edge_weight g r0 a0);
  Alcotest.(check (list int)) "succs" [ r0 ] (Graph.succs g a0);
  Alcotest.(check (list int)) "preds" [ a0 ] (Graph.preds g r0);
  Alcotest.(check bool) "a0 reads port" true (Graph.reads_port g a0);
  Alcotest.(check bool) "r0 writes port" true (Graph.writes_port g r0)

let test_graph_components_lanes () =
  let d = parse_ok lane_pair_src in
  let top = Design.find_exn d "top" in
  let g = Graph.build d top in
  (* The two lane instances are independent components. *)
  Alcotest.(check int) "two components" 2 (List.length (Graph.components g))

let test_graph_components_shared_input () =
  (* Two lanes fed by the same input port: still two components when
     port nets do not join, one when they do. *)
  let src =
    {|
module top (x, o0, o1);
  input [7:0] x;
  output [7:0] o0;
  output [7:0] o1;
  mlv_not n0 (.a(x), .o(o0));
  mlv_not n1 (.a(x), .o(o1));
endmodule
|}
  in
  let d = parse_ok src in
  let top = Design.find_exn d "top" in
  let g = Graph.build d top in
  Alcotest.(check int) "broadcast split" 2 (List.length (Graph.components g));
  Alcotest.(check int) "joined via ports" 1
    (List.length (Graph.components ~include_port_nets:true g))

(* ---------------- Extract ---------------- *)

let test_extract_component () =
  let d = parse_ok lane_pair_src in
  let top = Design.find_exn d "top" in
  let g = Graph.build d top in
  match Graph.components g with
  | [ c0; _ ] ->
    let m = Extract.component ~name:"part0" d top c0 in
    Alcotest.(check int) "one instance" 1 (List.length m.Ast.instances);
    Alcotest.(check int) "two ports" 2 (List.length m.Ast.ports)
  | other -> Alcotest.failf "expected 2 components, got %d" (List.length other)

let test_extract_component_internal_nets () =
  let src =
    {|
module m (x, y);
  input [3:0] x;
  output [3:0] y;
  wire [3:0] t;
  mlv_add a0 (.a(x), .b(x), .o(t));
  mlv_not n0 (.a(t), .o(y));
endmodule
|}
  in
  let d = parse_ok src in
  let m = Design.find_exn d "m" in
  (* Both instances in one component: t stays internal. *)
  let c = Extract.component ~name:"c" d m [ 0; 1 ] in
  Alcotest.(check int) "internal net kept" 1 (List.length c.Ast.nets);
  Alcotest.(check int) "ports x y" 2 (List.length c.Ast.ports);
  (* Only the adder: t becomes an output. *)
  let c2 = Extract.component ~name:"c2" d m [ 0 ] in
  let outs = List.filter (fun (p : Ast.port) -> p.dir = Ast.Output) c2.Ast.ports in
  Alcotest.(check (list string)) "t is output" [ "t" ]
    (List.map (fun (p : Ast.port) -> p.port_name) outs)

let test_extract_flatten () =
  let d = parse_ok lane_pair_src in
  let flat = Extract.flatten d "top" in
  Alcotest.(check bool) "basic" true (Ast.is_basic flat);
  Alcotest.(check int) "4 prims" 4 (List.length flat.Ast.instances);
  Alcotest.(check int) "same ports" 4 (List.length flat.Ast.ports);
  (* flattened design validates standalone *)
  let d2 = Design.of_modules [ flat ] in
  Alcotest.(check (list string)) "valid" [] (Design.validate d2)

let test_extract_flatten_deep () =
  let src =
    {|
module leaf (a, o);
  input [3:0] a;
  output [3:0] o;
  mlv_not n (.a(a), .o(o));
endmodule

module mid (a, o);
  input [3:0] a;
  output [3:0] o;
  wire [3:0] t;
  leaf l0 (.a(a), .o(t));
  leaf l1 (.a(t), .o(o));
endmodule

module deep_top (a, o);
  input [3:0] a;
  output [3:0] o;
  wire [3:0] t;
  mid m0 (.a(a), .o(t));
  mid m1 (.a(t), .o(o));
endmodule
|}
  in
  let d = parse_ok src in
  let flat = Extract.flatten d "deep_top" in
  Alcotest.(check int) "4 nots" 4 (List.length flat.Ast.instances);
  let d2 = Design.of_modules [ flat ] in
  Alcotest.(check (list string)) "valid" [] (Design.validate d2)


(* ---------------- Transform ---------------- *)

let test_transform_constant_fold () =
  let src =
    {|
module m (o);
  output [7:0] o;
  wire [7:0] a;
  wire [7:0] b;
  mlv_const #(.VALUE(3)) c1 (.o(a));
  mlv_const #(.VALUE(4)) c2 (.o(b));
  mlv_add g (.a(a), .b(b), .o(o));
endmodule
|}
  in
  let m = Design.find_exn (parse_ok src) "m" in
  let f = Transform.constant_fold m in
  (* the adder became a constant 7 *)
  let folded =
    List.exists
      (fun (i : Ast.instance) ->
        i.Ast.master = Ast.M_prim (Ast.P_const { width = 8; value = 7 }))
      f.Ast.instances
  in
  Alcotest.(check bool) "folded to 7" true folded

let test_transform_fold_cascades () =
  let src =
    {|
module m (o);
  output [7:0] o;
  wire [7:0] a;
  wire [7:0] t;
  mlv_const #(.VALUE(5)) c (.o(a));
  mlv_not n (.a(a), .o(t));
  mlv_add g (.a(t), .b(a), .o(o));
endmodule
|}
  in
  let m = Design.find_exn (parse_ok src) "m" in
  let f = Transform.simplify m in
  (* everything collapses to one constant driving o *)
  Alcotest.(check int) "one instance left" 1 (List.length f.Ast.instances);
  (* (~5 land 255) + 5 = 250 + 5 = 255 *)
  match (List.hd f.Ast.instances).Ast.master with
  | Ast.M_prim (Ast.P_const { value; _ }) -> Alcotest.(check int) "value" 255 value
  | _ -> Alcotest.fail "expected constant"

let test_transform_registers_not_folded () =
  let src =
    {|
module m (q);
  output [3:0] q;
  wire [3:0] c;
  mlv_const #(.VALUE(9)) k (.o(c));
  mlv_reg r (.d(c), .q(q));
endmodule
|}
  in
  let m = Design.find_exn (parse_ok src) "m" in
  let f = Transform.simplify m in
  (* the register stays: its cycle-0 output is 0, not 9 *)
  Alcotest.(check bool) "reg kept" true
    (List.exists
       (fun (i : Ast.instance) ->
         match i.Ast.master with Ast.M_prim (Ast.P_reg _) -> true | _ -> false)
       f.Ast.instances)

let test_transform_dead_prims () =
  let src =
    {|
module m (x, o);
  input [3:0] x;
  output [3:0] o;
  wire [3:0] unused;
  mlv_not live (.a(x), .o(o));
  mlv_add dead (.a(x), .b(x), .o(unused));
endmodule
|}
  in
  let m = Design.find_exn (parse_ok src) "m" in
  let f = Transform.dead_prims m in
  Alcotest.(check int) "dead removed" 1 (List.length f.Ast.instances);
  Alcotest.(check int) "dead net removed" 0 (List.length f.Ast.nets)

let test_transform_dead_ram_chain () =
  (* A RAM whose read port goes nowhere dies along with its address
     logic. *)
  let src =
    {|
module m (x, o);
  input [3:0] x;
  output [3:0] o;
  wire [3:0] addr;
  wire [7:0] data;
  mlv_not live (.a(x), .o(o));
  mlv_not a0 (.a(x), .o(addr));
  mlv_ram #(.WORDS(16), .WIDTH(8)) r (.waddr(addr), .wdata(data), .wen(x), .raddr(addr), .rdata(data));
endmodule
|}
  in
  (* note: wen takes x's low bit via width mismatch; simplify the
     example by using a 1-bit input instead *)
  ignore src;
  let src =
    {|
module m (x, en, o);
  input [3:0] x;
  input en;
  output [3:0] o;
  wire [3:0] addr;
  wire [7:0] data;
  wire [7:0] wdata;
  mlv_not live (.a(x), .o(o));
  mlv_not a0 (.a(x), .o(addr));
  mlv_const #(.VALUE(0)) z (.o(wdata));
  mlv_ram #(.WORDS(16), .WIDTH(8)) r (.waddr(addr), .wdata(wdata), .wen(en), .raddr(addr), .rdata(data));
endmodule
|}
  in
  let m = Design.find_exn (parse_ok src) "m" in
  let f = Transform.dead_prims m in
  Alcotest.(check int) "only live not" 1 (List.length f.Ast.instances)

let test_transform_preserves_interface () =
  let d = parse_ok lane_pair_src in
  let lane = Design.find_exn d "lane" in
  let f = Transform.simplify lane in
  Alcotest.(check int) "same ports" (List.length lane.Ast.ports) (List.length f.Ast.ports)

let test_transform_nonbasic_rejected () =
  let d = parse_ok lane_pair_src in
  let top = Design.find_exn d "top" in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Transform.simplify top);
       false
     with Invalid_argument _ -> true)

(* Property: simplify preserves simulated behaviour on random
   add/not/mux cones over constants and inputs. *)
let prop_transform_preserves_semantics =
  QCheck.Test.make ~name:"simplify preserves behaviour" ~count:40
    QCheck.(pair (int_range 1 8) (int_range 0 1000))
    (fun (n_gates, seed) ->
      (* Build a random basic module: alternating const/input-fed
         gates chained together. *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf "module m (x, o);\n  input [7:0] x;\n  output [7:0] o;\n";
      for i = 0 to n_gates - 1 do
        Buffer.add_string buf (Printf.sprintf "  wire [7:0] t%d;\n" i)
      done;
      let prev i = if i = 0 then "x" else Printf.sprintf "t%d" (i - 1) in
      for i = 0 to n_gates - 1 do
        let out = if i = n_gates - 1 then "o" else Printf.sprintf "t%d" i in
        match (seed + i) mod 4 with
        | 0 ->
          Buffer.add_string buf
            (Printf.sprintf "  wire [7:0] k%d;\n  mlv_const #(.VALUE(%d)) kc%d (.o(k%d));\n  mlv_add g%d (.a(%s), .b(k%d), .o(%s));\n"
               i ((seed * (i + 3)) mod 256) i i i (prev i) i out)
        | 1 -> Buffer.add_string buf (Printf.sprintf "  mlv_not g%d (.a(%s), .o(%s));\n" i (prev i) out)
        | 2 ->
          Buffer.add_string buf
            (Printf.sprintf "  mlv_xor g%d (.a(%s), .b(x), .o(%s));\n" i (prev i) out)
        | _ ->
          Buffer.add_string buf
            (Printf.sprintf "  mlv_sub g%d (.a(%s), .b(x), .o(%s));\n" i (prev i) out)
      done;
      Buffer.add_string buf "endmodule\n";
      let m =
        match Parser.parse_string (Buffer.contents buf) with
        | Ok d -> Design.find_exn d "m"
        | Error e -> failwith e
      in
      let s = Transform.simplify m in
      Mlv_eqcheck.Check.modules_equivalent m { s with Ast.mod_name = "m2" })


let test_stats () =
  let d = parse_ok lane_pair_src in
  let s = Stats.of_design d in
  Alcotest.(check int) "modules" 2 s.Stats.modules;
  Alcotest.(check int) "basic" 1 s.Stats.basic_modules;
  Alcotest.(check int) "flat prims" 4 s.Stats.flat_primitives;
  Alcotest.(check int) "depth" 2 s.Stats.hierarchy_depth;
  Alcotest.(check (list (pair string int))) "histogram"
    [ ("mlv_add", 2); ("mlv_reg", 2) ]
    (List.sort compare s.Stats.prim_histogram)


(* ---------------- Parameterized modules ---------------- *)

let param_src =
  {|
module padder #(W = 8) (a, b, o);
  input [W-1:0] a;
  input [W-1:0] b;
  output [W-1:0] o;
  mlv_add g (.a(a), .b(b), .o(o));
endmodule

module pstage #(WIDTH = 8, FACTOR = 2) (x, o);
  input [WIDTH-1:0] x;
  output [WIDTH*FACTOR-1:0] o;
  wire [WIDTH-1:0] t;
  wire [WIDTH*FACTOR-1:0] wide;
  padder #(.W(WIDTH)) a0 (.a(x), .b(x), .o(t));
  mlv_concat c (.a(t), .b(x), .o(wide));
  mlv_reg r (.d(wide), .q(o));
endmodule

module ptop (x8, x16, o16, o32);
  input [7:0] x8;
  input [15:0] x16;
  output [15:0] o16;
  output [31:0] o32;
  pstage s8 (.x(x8), .o(o16));
  pstage #(.WIDTH(16)) s16 (.x(x16), .o(o32));
endmodule
|}

let test_param_monomorphization () =
  let d = parse_ok param_src in
  Alcotest.(check (list string)) "valid" [] (Design.validate d);
  let names = List.map (fun (m : Ast.module_def) -> m.Ast.mod_name) (Design.modules d) in
  Alcotest.(check bool) "8-bit adder" true (List.mem "padder$W8" names);
  Alcotest.(check bool) "16-bit adder" true (List.mem "padder$W16" names);
  Alcotest.(check bool) "default stage" true (List.mem "pstage$WIDTH8$FACTOR2" names);
  Alcotest.(check bool) "wide stage" true (List.mem "pstage$WIDTH16$FACTOR2" names);
  (* widths really specialized *)
  let adder16 = Design.find_exn d "padder$W16" in
  Alcotest.(check int) "16-bit port" 16 (Ast.net_width adder16 "a")

let test_param_sharing () =
  (* Two instantiations with the same binding elaborate one module. *)
  let src =
    {|
module leafp #(N = 4) (x, o);
  input [N-1:0] x;
  output [N-1:0] o;
  mlv_not g (.a(x), .o(o));
endmodule
module t2 (a, b, oa, ob);
  input [7:0] a;
  input [7:0] b;
  output [7:0] oa;
  output [7:0] ob;
  leafp #(.N(8)) u0 (.x(a), .o(oa));
  leafp #(.N(8)) u1 (.x(b), .o(ob));
endmodule
|}
  in
  let d = parse_ok src in
  let copies =
    List.filter
      (fun (m : Ast.module_def) ->
        String.length m.Ast.mod_name >= 5 && String.sub m.Ast.mod_name 0 5 = "leafp")
      (Design.modules d)
  in
  Alcotest.(check int) "one elaboration" 1 (List.length copies)

let test_param_errors () =
  (* unknown parameter *)
  (match
     Parser.parse_string
       {|
module m #(A = 1) (o);
  output o;
  mlv_const #(.VALUE(A)) c (.o(o));
endmodule
module t (o);
  output o;
  m #(.B(2)) u (.o(o));
endmodule
|}
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown parameter");
  (* parameters on an unparameterized module *)
  match
    Parser.parse_string
      {|
module plain (o);
  output o;
  mlv_const #(.VALUE(1)) c (.o(o));
endmodule
module t (o);
  output o;
  plain #(.X(1)) u (.o(o));
endmodule
|}
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted params on plain module"

let test_param_expr_in_override () =
  (* Parameter values in instantiations may themselves be constant
     expressions over outer parameters. *)
  let src =
    {|
module inner #(N = 2) (o);
  output [N-1:0] o;
  mlv_const #(.VALUE(1)) c (.o(o));
endmodule
module outer #(W = 4) (o);
  output [2*W-1:0] o;
  inner #(.N(W*2)) u (.o(o));
endmodule
module t2e (o);
  output [7:0] o;
  outer u (.o(o));
endmodule
|}
  in
  let d = parse_ok src in
  Alcotest.(check (list string)) "valid" [] (Design.validate d);
  Alcotest.(check bool) "inner$N8 exists" true (Design.mem d "inner$N8")

let test_param_const_exprs () =
  let src =
    {|
module cw #(W = 4) (o);
  output [2*W+1:0] o;
  mlv_const #(.VALUE(3)) c (.o(o));
endmodule
module t (o);
  output [9:0] o;
  cw u (.o(o));
endmodule
|}
  in
  let d = parse_ok src in
  Alcotest.(check (list string)) "valid" [] (Design.validate d);
  let cw = Design.find_exn d "cw$W4" in
  Alcotest.(check int) "2*4+1+1 bits" 10 (Ast.net_width cw "o")

let test_param_decompose_flows () =
  (* Parameterized lanes still decompose into data parallelism (the
     elaborated copies share a module, so name-equality grouping
     applies). *)
  let src =
    {|
(* control_path *)
module pctl (go);
  output go;
  wire n;
  mlv_const #(.VALUE(1)) c (.o(n));
  mlv_reg r (.d(n), .q(go));
endmodule
module plane #(W = 8) (x, o);
  input [W-1:0] x;
  output [W-1:0] o;
  wire [W-1:0] t;
  mlv_add a (.a(x), .b(x), .o(t));
  mlv_reg r (.d(t), .q(o));
endmodule
module ptop2 (x0, x1, o0, o1);
  input [7:0] x0;
  input [7:0] x1;
  output [7:0] o0;
  output [7:0] o1;
  wire go;
  pctl c (.go(go));
  plane l0 (.x(x0), .o(o0));
  plane l1 (.x(x1), .o(o1));
endmodule
|}
  in
  let d = parse_ok src in
  match Mlv_core.Decompose.run d ~top:"ptop2" with
  | Error e -> Alcotest.failf "decompose: %s" e
  | Ok r -> (
    match r.Mlv_core.Decompose.data with
    | Mlv_core.Soft_block.Node
        { Mlv_core.Soft_block.composition = Mlv_core.Soft_block.Data_parallel; children; _ }
      ->
      Alcotest.(check int) "two lanes" 2 (List.length children)
    | _ -> Alcotest.fail "expected DP root")

(* Every module of [d] has the census the reference implementation
   gives, pairs and order included. *)
let check_census_matches_oracle label d =
  List.iter
    (fun (m : Ast.module_def) ->
      let name = m.Ast.mod_name in
      if Census_oracle.prim_census d name <> Design.prim_census d name then
        Alcotest.failf "%s: census of %s differs from the reference" label name)
    (Design.modules d)

let test_design_census_matches_oracle () =
  List.iter
    (fun (label, src) -> check_census_matches_oracle label (parse_ok src))
    [
      ("lane pair", lane_pair_src);
      ("alu", alu_src);
      ("concat/slice", concat_slice_src);
      ("parameterized", param_src);
    ];
  List.iter
    (fun tiles ->
      check_census_matches_oracle
        (Printf.sprintf "npu-t%d" tiles)
        (Mlv_accel.Rtl_gen.generate (Mlv_accel.Config.make ~tiles ())))
    [ 4; 42 ]

let () =
  Alcotest.run "rtl"
    [
      ( "ast",
        [
          Alcotest.test_case "prim ports" `Quick test_ast_prim_ports;
          Alcotest.test_case "prim sequential" `Quick test_ast_prim_sequential;
          Alcotest.test_case "is_basic" `Quick test_ast_is_basic;
          Alcotest.test_case "net_width" `Quick test_ast_net_width;
          Alcotest.test_case "width_table" `Quick test_ast_width_table;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic design" `Quick test_parse_basic;
          Alcotest.test_case "attributes" `Quick test_parse_attributes;
          Alcotest.test_case "assign lowering" `Quick test_parse_assign_lowering;
          Alcotest.test_case "sized literals" `Quick test_parse_sized_literals;
          Alcotest.test_case "concat and slice" `Quick test_parse_concat_slice;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
          Alcotest.test_case "duplicate module" `Quick test_parse_duplicate_module;
          Alcotest.test_case "printer roundtrip" `Quick test_printer_roundtrip;
        ] );
      ( "design",
        [
          Alcotest.test_case "top" `Quick test_design_top;
          Alcotest.test_case "topo order" `Quick test_design_topo_order;
          Alcotest.test_case "children" `Quick test_design_children;
          Alcotest.test_case "prim census" `Quick test_design_census;
          Alcotest.test_case "basic modules" `Quick test_design_basic_modules;
          Alcotest.test_case "validate unknown master" `Quick test_design_validate_unknown_master;
          Alcotest.test_case "validate width mismatch" `Quick test_design_validate_width_mismatch;
          Alcotest.test_case "validate net shadows port" `Quick
            test_design_validate_net_shadows_port;
          Alcotest.test_case "census matches reference" `Quick
            test_design_census_matches_oracle;
          Alcotest.test_case "cycle detection" `Quick test_design_cycle_detection;
        ] );
      ( "graph",
        [
          Alcotest.test_case "edges and weights" `Quick test_graph_edges;
          Alcotest.test_case "lane components" `Quick test_graph_components_lanes;
          Alcotest.test_case "broadcast components" `Quick test_graph_components_shared_input;
        ] );
      ("stats", [ Alcotest.test_case "of_design" `Quick test_stats ]);
      ( "parameters",
        [
          Alcotest.test_case "monomorphization" `Quick test_param_monomorphization;
          Alcotest.test_case "sharing" `Quick test_param_sharing;
          Alcotest.test_case "errors" `Quick test_param_errors;
          Alcotest.test_case "const exprs" `Quick test_param_const_exprs;
          Alcotest.test_case "expr in override" `Quick test_param_expr_in_override;
          Alcotest.test_case "decomposes" `Quick test_param_decompose_flows;
        ] );
      ( "transform",
        [
          Alcotest.test_case "constant fold" `Quick test_transform_constant_fold;
          Alcotest.test_case "fold cascades" `Quick test_transform_fold_cascades;
          Alcotest.test_case "registers not folded" `Quick test_transform_registers_not_folded;
          Alcotest.test_case "dead prims" `Quick test_transform_dead_prims;
          Alcotest.test_case "dead ram chain" `Quick test_transform_dead_ram_chain;
          Alcotest.test_case "preserves interface" `Quick test_transform_preserves_interface;
          Alcotest.test_case "non-basic rejected" `Quick test_transform_nonbasic_rejected;
          QCheck_alcotest.to_alcotest prop_transform_preserves_semantics;
        ] );
      ( "extract",
        [
          Alcotest.test_case "component" `Quick test_extract_component;
          Alcotest.test_case "component internal nets" `Quick test_extract_component_internal_nets;
          Alcotest.test_case "flatten" `Quick test_extract_flatten;
          Alcotest.test_case "flatten deep" `Quick test_extract_flatten_deep;
        ] );
    ]
