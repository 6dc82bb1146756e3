(* Tests for the framework core: soft blocks, patterns, the
   decomposer, partitioner, mapping, registry, runtime and the
   scale-out optimizer. *)

module SB = Mlv_core.Soft_block
module Pattern = Mlv_core.Pattern
module Decompose = Mlv_core.Decompose
module Partition = Mlv_core.Partition
module Mapping = Mlv_core.Mapping
module Mapdb = Mlv_core.Mapdb
module Runtime = Mlv_core.Runtime
module Scale_out = Mlv_core.Scale_out
module Defrag = Mlv_core.Defrag
module Framework = Mlv_core.Framework
module Hypervisor = Mlv_core.Hypervisor
module Top_down = Mlv_core.Top_down
module Parser = Mlv_rtl.Parser
module Design = Mlv_rtl.Design
module Resource = Mlv_fpga.Resource
module Device = Mlv_fpga.Device
module Cluster = Mlv_cluster.Cluster
module Codegen = Mlv_isa.Codegen
module Program = Mlv_isa.Program
module Instr = Mlv_isa.Instr
module Rng = Mlv_util.Rng
module Obs = Mlv_obs.Obs
module Placement = Mlv_oracle.Placement

let parse_ok src =
  match Parser.parse_string src with
  | Ok d -> d
  | Error msg -> Alcotest.failf "parse error: %s" msg

let res l = Resource.make ~luts:l ()
(* Structural: [No_sharing] makes the bytes independent of which equal
   values happen to be physically shared. *)
let structural_digest v =
  Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let mk_leaf ?(m = "m") name = SB.leaf ~name ~module_name:m ~resources:(res 10) ()

(* ---------------- Soft blocks ---------------- *)

let test_sb_constructors () =
  let l = mk_leaf "a" in
  let dp = SB.data_par ~name:"dp" [ l; l; l ] in
  let pipe = SB.pipeline ~name:"p" ~link_bits:[ 8; 16 ] [ l; dp; l ] in
  (* pipe node + [leaf; dp node + 3 leaves; leaf] *)
  Alcotest.(check int) "size" 7 (SB.size pipe);
  Alcotest.(check int) "depth" 3 (SB.depth pipe);
  Alcotest.(check int) "leaves" 5 (List.length (SB.leaves pipe));
  Alcotest.(check int) "dp count" 1 (SB.count_composition pipe SB.Data_parallel);
  Alcotest.(check int) "pipe count" 1 (SB.count_composition pipe SB.Pipeline);
  Alcotest.(check int) "resources" 50 (SB.resources pipe).Resource.luts

let test_sb_validation () =
  Alcotest.(check bool) "empty node" true
    (try
       ignore (SB.data_par ~name:"x" []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad link arity" true
    (try
       ignore (SB.pipeline ~name:"x" ~link_bits:[ 1; 2; 3 ] [ mk_leaf "a"; mk_leaf "b" ]);
       false
     with Invalid_argument _ -> true)

let test_sb_validate_dp_shape () =
  let bad =
    SB.Node
      {
        SB.nname = "dp";
        composition = SB.Data_parallel;
        children = [ mk_leaf ~m:"x" "a"; mk_leaf ~m:"y" "b" ];
        link_bits = [];
        nrole = SB.Data;
      }
  in
  Alcotest.(check bool) "catches shape mismatch" true (SB.validate bad <> [])

let test_sb_equal_shape () =
  let a = SB.data_par ~name:"a" [ mk_leaf ~m:"x" "1"; mk_leaf ~m:"x" "2" ] in
  let b = SB.data_par ~name:"b" [ mk_leaf ~m:"x" "other"; mk_leaf ~m:"x" "names" ] in
  Alcotest.(check bool) "equal up to names" true (SB.equal_shape a b);
  let c = SB.data_par ~name:"c" [ mk_leaf ~m:"y" "1"; mk_leaf ~m:"y" "2" ] in
  Alcotest.(check bool) "module matters" false (SB.equal_shape a c)

let test_sb_pp () =
  let t = SB.pipeline ~name:"p" [ mk_leaf "a"; SB.data_par ~name:"d" [ mk_leaf "b" ] ] in
  let s = Format.asprintf "%a" SB.pp t in
  Alcotest.(check bool) "mentions PIPE" true
    (String.length s > 0
    &&
    let contains needle =
      let nh = String.length s and nn = String.length needle in
      let rec at i = i + nn <= nh && (String.sub s i nn = needle || at (i + 1)) in
      at 0
    in
    contains "PIPE" && contains "DP")

(* ---------------- Patterns ---------------- *)

let test_pattern_replicate () =
  let t = Pattern.replicate ~name:"r" 4 (mk_leaf "x") in
  Alcotest.(check int) "4 leaves" 4 (List.length (SB.leaves t));
  Alcotest.(check (list string)) "valid" [] (SB.validate t)

let test_pattern_reduction () =
  (* fan_in 2, 3 levels: stages of 4, 2, 1 reducers. *)
  let t =
    Pattern.reduction ~name:"red" ~fan_in:2 ~levels:3 (fun ~level:_ ~index:_ ->
        mk_leaf ~m:"red_unit" "u")
  in
  Alcotest.(check int) "7 leaves" 7 (List.length (SB.leaves t));
  Alcotest.(check int) "pipe at top" 1 (SB.count_composition t SB.Pipeline);
  Alcotest.(check int) "2 dp stages" 2 (SB.count_composition t SB.Data_parallel);
  Alcotest.(check (list string)) "valid" [] (SB.validate t)

let test_pattern_map_pipeline () =
  let t = Pattern.map_pipeline ~name:"mp" ~ways:3 [ mk_leaf "s1"; mk_leaf "s2" ] in
  Alcotest.(check int) "6 leaves" 6 (List.length (SB.leaves t));
  Alcotest.(check (list string)) "valid" [] (SB.validate t);
  match t with
  | SB.Node { SB.composition = SB.Data_parallel; _ } -> ()
  | _ -> Alcotest.fail "expected DP root"

(* ---------------- Decompose ---------------- *)

(* A small accelerator with marked control, two identical engine
   modules in data parallel, each a pipeline of two stages. *)
let small_accel_src =
  {|
(* control_path *)
module ctl (go);
  output go;
  wire gnext;
  mlv_reg r (.d(gnext), .q(go));
  mlv_const #(.VALUE(1)) c (.o(gnext));
endmodule

module stage_a (x, o);
  input [7:0] x;
  output [7:0] o;
  mlv_add g (.a(x), .b(x), .o(o));
endmodule

module stage_b (x, o);
  input [7:0] x;
  output [7:0] o;
  mlv_reg g (.d(x), .q(o));
endmodule

module lane (x, o);
  input [7:0] x;
  output [7:0] o;
  wire [7:0] t;
  stage_a sa (.x(x), .o(t));
  stage_b sb (.x(t), .o(o));
endmodule

module accel_top (x0, x1, o0, o1);
  input [7:0] x0;
  input [7:0] x1;
  output [7:0] o0;
  output [7:0] o1;
  wire go;
  ctl c (.go(go));
  lane l0 (.x(x0), .o(o0));
  lane l1 (.x(x1), .o(o1));
endmodule
|}

let decompose_ok ?config src top =
  match Decompose.run ?config (parse_ok src) ~top with
  | Ok r -> r
  | Error e -> Alcotest.failf "decompose failed: %s" e

let test_decompose_small_accel () =
  let r = decompose_ok small_accel_src "accel_top" in
  Alcotest.(check (list string)) "data tree valid" [] (SB.validate r.Decompose.data);
  (* Expect DP(2 x pipeline[stage_a, stage_b]). *)
  (match r.Decompose.data with
  | SB.Node { SB.composition = SB.Data_parallel; children = [ a; b ]; _ } ->
    Alcotest.(check bool) "children equal" true (SB.equal_shape a b);
    (match a with
    | SB.Node { SB.composition = SB.Pipeline; children = [ _; _ ]; _ } -> ()
    | _ -> Alcotest.fail "expected 2-stage pipeline per lane")
  | other ->
    Alcotest.failf "expected DP root, got %s" (Format.asprintf "%a" SB.pp other));
  Alcotest.(check int) "stats dp" 1 r.Decompose.stats.Decompose.dp_groups;
  Alcotest.(check int) "stats pipe" 2 r.Decompose.stats.Decompose.pipe_groups

let test_decompose_control_split () =
  let r = decompose_ok small_accel_src "accel_top" in
  let ctl_leaves = SB.leaves r.Decompose.control in
  Alcotest.(check bool) "control nonempty" true (ctl_leaves <> []);
  List.iter
    (fun (l : SB.leaf) ->
      Alcotest.(check bool) "role control" true (l.SB.lrole = SB.Control))
    ctl_leaves

let test_decompose_no_control_error () =
  let src =
    {|
module only_data (x, o);
  input [3:0] x;
  output [3:0] o;
  mlv_not g (.a(x), .o(o));
endmodule
|}
  in
  match Decompose.run (parse_ok src) ~top:"only_data" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected missing-control error"

let test_decompose_control_by_name () =
  (* Same design, but the control module is named via config instead
     of the attribute. *)
  let src = String.concat "\n" (List.tl (String.split_on_char '\n' small_accel_src)) in
  (* dropped the attribute line *)
  let config =
    { Decompose.default_config with Decompose.control_modules = [ "ctl" ] }
  in
  let r = decompose_ok ~config src "accel_top" in
  Alcotest.(check bool) "data root is DP" true
    (match r.Decompose.data with
    | SB.Node { SB.composition = SB.Data_parallel; _ } -> true
    | _ -> false)

let test_decompose_unknown_top () =
  match Decompose.run (parse_ok small_accel_src) ~top:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown-top error"

let test_decompose_eqcheck_different_names () =
  (* Two lanes implemented by differently-named but equivalent
     modules: inter-block data parallelism must still fire (via the
     equivalence checker). *)
  let src =
    {|
(* control_path *)
module ctl (go);
  output go;
  wire n;
  mlv_const #(.VALUE(1)) c (.o(n));
  mlv_reg r (.d(n), .q(go));
endmodule

module lane_one (x, o);
  input [7:0] x;
  output [7:0] o;
  wire [7:0] t;
  mlv_add g1 (.a(x), .b(x), .o(t));
  mlv_reg g2 (.d(t), .q(o));
endmodule

module lane_two (p, q);
  input [7:0] p;
  output [7:0] q;
  wire [7:0] w;
  mlv_add u1 (.a(p), .b(p), .o(w));
  mlv_reg u2 (.d(w), .q(q));
endmodule

module top2 (x0, x1, o0, o1);
  input [7:0] x0;
  input [7:0] x1;
  output [7:0] o0;
  output [7:0] o1;
  wire go;
  ctl c (.go(go));
  lane_one l0 (.x(x0), .o(o0));
  lane_two l1 (.p(x1), .q(o1));
endmodule
|}
  in
  let r = decompose_ok src "top2" in
  (match r.Decompose.data with
  | SB.Node { SB.composition = SB.Data_parallel; children = [ _; _ ]; _ } -> ()
  | other -> Alcotest.failf "expected DP of 2, got %s" (Format.asprintf "%a" SB.pp other));
  Alcotest.(check bool) "eq checks ran" true (r.Decompose.stats.Decompose.eq_checks > 0)

let test_decompose_intra_block_lanes () =
  (* One basic module containing two independent identical cones:
     step 2 must split it. *)
  let src =
    {|
(* control_path *)
module ctl (go);
  output go;
  wire n;
  mlv_const #(.VALUE(1)) c (.o(n));
  mlv_reg r (.d(n), .q(go));
endmodule

module simd2 (x0, x1, o0, o1);
  input [7:0] x0;
  input [7:0] x1;
  output [7:0] o0;
  output [7:0] o1;
  wire [7:0] t0;
  wire [7:0] t1;
  mlv_add a0 (.a(x0), .b(x0), .o(t0));
  mlv_reg r0 (.d(t0), .q(o0));
  mlv_add a1 (.a(x1), .b(x1), .o(t1));
  mlv_reg r1 (.d(t1), .q(o1));
endmodule

module top3 (x0, x1, o0, o1);
  input [7:0] x0;
  input [7:0] x1;
  output [7:0] o0;
  output [7:0] o1;
  wire go;
  ctl c (.go(go));
  simd2 s (.x0(x0), .x1(x1), .o0(o0), .o1(o1));
endmodule
|}
  in
  let r = decompose_ok src "top3" in
  match r.Decompose.data with
  | SB.Node { SB.composition = SB.Data_parallel; children = [ _; _ ]; _ } -> ()
  | other ->
    Alcotest.failf "expected intra-block DP of 2, got %s"
      (Format.asprintf "%a" SB.pp other)

let test_decompose_intra_disabled () =
  let src =
    {|
(* control_path *)
module ctl (go);
  output go;
  wire n;
  mlv_const #(.VALUE(1)) c (.o(n));
  mlv_reg r (.d(n), .q(go));
endmodule

module simd2 (x0, x1, o0, o1);
  input [7:0] x0;
  input [7:0] x1;
  output [7:0] o0;
  output [7:0] o1;
  mlv_not n0 (.a(x0), .o(o0));
  mlv_not n1 (.a(x1), .o(o1));
endmodule

module top4 (x0, x1, o0, o1);
  input [7:0] x0;
  input [7:0] x1;
  output [7:0] o0;
  output [7:0] o1;
  wire go;
  ctl c (.go(go));
  simd2 s (.x0(x0), .x1(x1), .o0(o0), .o1(o1));
endmodule
|}
  in
  let config = { Decompose.default_config with Decompose.enable_intra = false } in
  let r = decompose_ok ~config src "top4" in
  match r.Decompose.data with
  | SB.Leaf _ -> ()
  | other ->
    Alcotest.failf "expected plain leaf with intra disabled, got %s"
      (Format.asprintf "%a" SB.pp other)

let test_decompose_intra_counts_checks_run () =
  (* Three disconnected lanes, the second unlike the first: step 2
     stops at the first failed check, so exactly one check ran. *)
  let src =
    {|
(* control_path *)
module ctl (go);
  output go;
  wire n;
  mlv_const #(.VALUE(1)) c (.o(n));
  mlv_reg r (.d(n), .q(go));
endmodule

module simd3 (x0, x1, x2, o0, o1, o2);
  input [7:0] x0;
  input [7:0] x1;
  input [7:0] x2;
  output [7:0] o0;
  output [7:0] o1;
  output [7:0] o2;
  wire [7:0] t0;
  wire [7:0] t1;
  wire [7:0] t2;
  mlv_add a0 (.a(x0), .b(x0), .o(t0));
  mlv_reg r0 (.d(t0), .q(o0));
  mlv_xor a1 (.a(x1), .b(x1), .o(t1));
  mlv_reg r1 (.d(t1), .q(o1));
  mlv_add a2 (.a(x2), .b(x2), .o(t2));
  mlv_reg r2 (.d(t2), .q(o2));
endmodule

module top5 (x0, x1, x2, o0, o1, o2);
  input [7:0] x0;
  input [7:0] x1;
  input [7:0] x2;
  output [7:0] o0;
  output [7:0] o1;
  output [7:0] o2;
  wire go;
  ctl c (.go(go));
  simd3 s (.x0(x0), .x1(x1), .x2(x2), .o0(o0), .o1(o1), .o2(o2));
endmodule
|}
  in
  let r = decompose_ok src "top5" in
  (match r.Decompose.data with
  | SB.Leaf _ -> ()
  | other ->
    Alcotest.failf "expected an unsplit leaf, got %s" (Format.asprintf "%a" SB.pp other));
  Alcotest.(check int) "checks performed" 1 r.Decompose.stats.Decompose.eq_checks;
  (* Through one session the second run reuses step 2's analysis of
     [simd3] and still counts its check. *)
  let design = parse_ok src and session = Decompose.session () in
  List.iter
    (fun run ->
      match Decompose.run ~session design ~top:"top5" with
      | Error e -> Alcotest.fail e
      | Ok shared ->
        Alcotest.(check string) (run ^ " run through a session") (structural_digest r)
          (structural_digest shared))
    [ "first"; "second" ]

(* Seeded random data-path graphs for the decomposer: basic modules
   of three kinds (two inputs, one output), chained mostly forward,
   with some back edges (cycles), broadcast from the control block and
   residue primitives in the top. *)
let random_design rng =
  let module Ast = Mlv_rtl.Ast in
  let port n dir = { Ast.port_name = n; dir; width = 8 } in
  let conn formal actual = { Ast.formal; actual } in
  let basic (name, p) =
    {
      Ast.mod_name = name;
      ports = [ port "a" Ast.Input; port "b" Ast.Input; port "o" Ast.Output ];
      nets = [ { Ast.net_name = "t"; net_width = 8 } ];
      instances =
        [
          { Ast.inst_name = "g"; master = Ast.M_prim p; conns = [ conn "a" "a"; conn "b" "b"; conn "o" "t" ] };
          { Ast.inst_name = "r"; master = Ast.M_prim (Ast.P_reg 8); conns = [ conn "d" "t"; conn "q" "o" ] };
        ];
      attrs = [];
    }
  in
  let kinds = [| ("k_add", Ast.P_add 8); ("k_xor", Ast.P_xor 8); ("k_and", Ast.P_and 8) |] in
  let ctl =
    {
      Ast.mod_name = "ctl";
      ports = [ port "a" Ast.Input; port "go" Ast.Output ];
      nets = [];
      instances =
        [ { Ast.inst_name = "r"; master = Ast.M_prim (Ast.P_reg 8); conns = [ conn "d" "a"; conn "q" "go" ] } ];
      attrs = [ "control_path" ];
    }
  in
  let n = 2 + Rng.int rng 40 in
  let n_kinds = 1 + Rng.int rng 3 in
  let net i = Printf.sprintf "n%d" i in
  let source i =
    match Rng.int rng 10 with
    | 0 -> "x"
    | 1 -> "go"
    | 2 -> net (Rng.int rng n)
    | _ -> if i = 0 then "x" else net (max 0 (i - 1 - Rng.int rng (min i 3)))
  in
  let insts =
    List.init n (fun i ->
        if Rng.int rng 8 = 0 then
          {
            Ast.inst_name = Printf.sprintf "p%d" i;
            master = Ast.M_prim (Ast.P_not 8);
            conns = [ conn "a" (source i); conn "o" (net i) ];
          }
        else
          let a = source i in
          let b = source i in
          {
            Ast.inst_name = Printf.sprintf "u%d" i;
            master = Ast.M_module (fst kinds.(Rng.int rng n_kinds));
            conns = [ conn "a" a; conn "b" b; conn "o" (net i) ];
          })
  in
  let top =
    {
      Ast.mod_name = "top";
      ports = [ port "x" Ast.Input ];
      nets =
        { Ast.net_name = "go"; net_width = 8 }
        :: List.init n (fun i -> { Ast.net_name = net i; net_width = 8 });
      instances =
        { Ast.inst_name = "c"; master = Ast.M_module "ctl"; conns = [ conn "a" "x"; conn "go" "go" ] }
        :: insts;
      attrs = [];
    }
  in
  Mlv_rtl.Design.of_modules (ctl :: top :: Array.to_list (Array.map basic kinds))

(* Pinned before step 4 kept its adjacency up to date across merges:
   the merge order, and so every tree, must not change. *)
let test_decompose_random_designs_pinned () =
  let rng = Rng.create 15 in
  let buf = Buffer.create 4096 in
  for _ = 1 to 300 do
    match Mlv_core.Decompose.run (random_design rng) ~top:"top" with
    | Ok d -> Buffer.add_string buf (Digest.string (Marshal.to_string d [ Marshal.No_sharing ]))
    | Error e -> Buffer.add_string buf e
  done;
  Alcotest.(check string)
    "digest of 300 decompositions" "b02719c7e9a5dc2b6942be01be442879"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let npu_result =
  lazy
    (match Framework.build_npu ~tiles:6 () with
    | Ok npu -> npu
    | Error e -> failwith e)

let test_decompose_npu_shape () =
  let npu = Lazy.force npu_result in
  let data = npu.Framework.decomposed.Decompose.data in
  Alcotest.(check (list string)) "valid" [] (SB.validate data);
  (* Fig. 9: root DP over engines, each engine a pipeline whose first
     stage is the DP of dot units. *)
  match data with
  | SB.Node { SB.composition = SB.Data_parallel; children; _ } ->
    Alcotest.(check int) "6 engines" 6 (List.length children);
    (match List.hd children with
    | SB.Node { SB.composition = SB.Pipeline; children = stages; _ } ->
      Alcotest.(check int) "3 stages" 3 (List.length stages);
      (match List.hd stages with
      | SB.Node { SB.composition = SB.Data_parallel; children = dots; _ } ->
        Alcotest.(check int) "16 dot units" 16 (List.length dots)
      | _ -> Alcotest.fail "expected DP of dot units")
    | _ -> Alcotest.fail "expected engine pipeline")
  | _ -> Alcotest.fail "expected DP root"

(* ---------------- Partition ---------------- *)

let test_partition_dp_even_split () =
  let t = Pattern.replicate ~name:"dp" 5 (mk_leaf ~m:"e" "e") in
  match Partition.bisect t with
  | Some (a, b, cut) ->
    Alcotest.(check int) "left 3" 3 (List.length (SB.leaves a));
    Alcotest.(check int) "right 2" 2 (List.length (SB.leaves b));
    Alcotest.(check int) "free cut" 0 cut
  | None -> Alcotest.fail "expected split"

let test_partition_pipeline_min_cut () =
  let t =
    SB.pipeline ~name:"p" ~link_bits:[ 64; 8; 128 ]
      [ mk_leaf "a"; mk_leaf "b"; mk_leaf "c"; mk_leaf "d" ]
  in
  match Partition.bisect t with
  | Some (a, b, cut) ->
    Alcotest.(check int) "cut at min" 8 cut;
    Alcotest.(check int) "left ab" 2 (List.length (SB.leaves a));
    Alcotest.(check int) "right cd" 2 (List.length (SB.leaves b))
  | None -> Alcotest.fail "expected split"

let test_partition_leaf_atomic () =
  Alcotest.(check bool) "leaf" true (Partition.bisect (mk_leaf "x") = None);
  let singleton = SB.data_par ~name:"d" [ mk_leaf "x" ] in
  Alcotest.(check bool) "singleton" true (Partition.bisect singleton = None)

let test_partition_levels () =
  let t = Pattern.replicate ~name:"dp" 8 (mk_leaf ~m:"e" "e") in
  let levels = Partition.run t ~iterations:2 in
  Alcotest.(check int) "3 levels" 3 (List.length levels);
  Alcotest.(check (list int)) "piece counts" [ 1; 2; 4 ]
    (List.map List.length levels);
  (* leaves conserved at every level *)
  List.iter
    (fun pieces ->
      let total =
        List.fold_left
          (fun acc (p : Partition.piece) -> acc + List.length (SB.leaves p.Partition.tree))
          0 pieces
      in
      Alcotest.(check int) "leaves conserved" 8 total)
    levels

let test_partition_exhausts () =
  (* 2 replicas: level 2 cannot split further; piece count stays 2. *)
  let t = Pattern.replicate ~name:"dp" 2 (mk_leaf ~m:"e" "e") in
  let levels = Partition.run t ~iterations:3 in
  Alcotest.(check (list int)) "saturates" [ 1; 2; 2; 2 ] (List.map List.length levels)

let test_partition_bisect_keeps_pipelines () =
  (* A position split would cut a DP of pipelines down the middle of
     a replica's pipeline; the pattern-aware one never does. *)
  let t = Pattern.map_pipeline ~name:"mp" ~ways:3 [ mk_leaf ~m:"s1" "a"; mk_leaf ~m:"s2" "b" ] in
  match Partition.bisect t with
  | Some (a, b, _) ->
    (* each side holds whole pipelines *)
    Alcotest.(check int) "left leaves even" 4 (List.length (SB.leaves a));
    Alcotest.(check int) "right leaves" 2 (List.length (SB.leaves b))
  | None -> Alcotest.fail "expected split"

(* ---------------- Mapping / registry ---------------- *)

let test_mapping_npu_levels () =
  let npu = Lazy.force npu_result in
  let m = npu.Framework.mapping in
  Alcotest.(check int) "3 levels" 3 (List.length m.Mapping.levels);
  let l0 = List.hd m.Mapping.levels in
  Alcotest.(check int) "level0 one piece" 1 (List.length l0);
  let p0 = List.hd l0 in
  Alcotest.(check int) "6 tiles" 6 p0.Mapping.tiles;
  Alcotest.(check bool) "control rides piece 0" true p0.Mapping.includes_control;
  Alcotest.(check bool) "both devices feasible" true
    (List.length p0.Mapping.bitstreams = 2)

let test_mapping_infeasible_large () =
  (* 32 tiles fit no single device: level 0 must have no bitstreams,
     level 1 pieces must. *)
  match Framework.build_npu ~tiles:32 () with
  | Error e -> Alcotest.fail e
  | Ok npu ->
    let levels = npu.Framework.mapping.Mapping.levels in
    let l0 = List.hd levels in
    Alcotest.(check (list string)) "level0 infeasible" []
      (List.concat_map
         (fun (p : Mapping.compiled_piece) ->
           List.map (fun (k, _) -> Device.kind_name k) p.Mapping.bitstreams)
         l0);
    let l1 = List.nth levels 1 in
    Alcotest.(check bool) "level1 feasible" true
      (List.for_all (fun (p : Mapping.compiled_piece) -> p.Mapping.bitstreams <> []) l1)

(* The compile flow of every registry instance, pinned byte for byte:
   per tile count, digests of the bottom-up decomposition (both trees
   with their resources, and the stats), of the compiled mapping, and
   of the top-down decomposition.  Speedups to estimation or to the
   decomposer's cluster graph must leave all three unchanged. *)
let registry_pins =
  [
    (4, "d8a6208498eb7a684fec986f175ac050", "c047159f6abedde71ed5ee5ab4582fca",
     "52b657323ea23d07d168546b602fcc76");
    (6, "3a29d736a989e6679b717cea2dabe020", "28031e963080ebbff31fcb3cf06426f0",
     "d581f43c85e5762165a17f66da00da59");
    (8, "711243cf10fdce283303b8ddc33de18c", "f6118da447c7def62c737cd5baa6639e",
     "ca4531c6d8c187321dccb375306fa4c9");
    (10, "88d6fc24034d44609fce9c7baea10b5c", "fa213d204886819580a6892844dcdceb",
     "070f7a53ad655f8dbb87aec08091d348");
    (13, "800b6544ea76a1fc8fde141f5a89760b", "992ef165ab609d88c7ab53406bdd1cb9",
     "b67e34b180ad3968b48a64193d49bd4c");
    (16, "9413ea154a2227e5cbb0b0997cf9c7c0", "b8a997a08879a9b2e547cdfe6cee2360",
     "efac4ddf00e6d1bdb46ed528e234735f");
    (18, "2d08270efc843ddf2c14885cce586dab", "64b9bd5813ebfd02144a5acf8ba47547",
     "49366eea275dcf54dcf40b392e4f49e8");
    (21, "b8036866181a4cee1d446b2cab3d6309", "aedacf910c19852841c232944cc23028",
     "2e5f0d03242a353d210f5692a45b159f");
    (32, "e2888a38b4e7afe7e8eefec9e0196e5a", "1ebe1dee4e90f82bf57508d52681ce22",
     "da6409bd0a500d89bc22849fa9cc80b5");
    (42, "2abeaf86793d760348a38b8fc7d7881e", "5d097b011f8b14e7b3e69c6108d454d3",
     "f9cf2387fcb70ab5e3e7e4ec2464e4a7");
  ]

let test_registry_pinned () =
  Alcotest.(check (list int))
    "pins cover every registry instance" Mlv_sysim.Sysim.instance_tile_counts
    (List.map (fun (t, _, _, _) -> t) registry_pins);
  let name tiles what = Printf.sprintf "npu-t%d %s" tiles what in
  (* Standalone builds, and builds in order through one session, which
     share the tile-independent modules and their analyses. *)
  let session = Framework.session () in
  List.iter
    (fun (tiles, decomposed, mapping, top_down) ->
      List.iter
        (fun (how, session) ->
          match Framework.build_npu ?session ~tiles () with
          | Error e -> Alcotest.fail e
          | Ok npu ->
            let name what = name tiles (how ^ what) in
            Alcotest.(check string)
              (name "decomposition") decomposed
              (structural_digest npu.Framework.decomposed);
            Alcotest.(check string)
              (name "mapping") mapping
              (structural_digest npu.Framework.mapping);
            (match
               Top_down.run ~config:Framework.decompose_config npu.Framework.design
                 ~top:Mlv_accel.Rtl_gen.top_name
             with
            | Error e -> Alcotest.fail e
            | Ok d -> Alcotest.(check string) (name "top-down") top_down (structural_digest d)))
        [ ("", None); ("shared ", Some session) ])
    registry_pins;
  (* The registry the simulator builds, read back through the
     database. *)
  let db = Framework.npu_registry ~tile_counts:Mlv_sysim.Sysim.instance_tile_counts () in
  List.iter
    (fun (tiles, _, mapping, _) ->
      match Mapdb.find db (Framework.accel_name ~tiles) with
      | None -> Alcotest.failf "npu-t%d not registered" tiles
      | Some plan ->
        Alcotest.(check string)
          (name tiles "registered mapping") mapping
          (structural_digest plan.Mapdb.mapping))
    registry_pins

(* A cost cache keeps each model's prices apart: compiling under the
   NPU model with a cache the estimate model filled gives the fresh
   NPU-model mapping, not one priced at the estimate model's engines. *)
let test_cost_cache_per_model () =
  match Framework.build_npu ~tiles:6 () with
  | Error e -> Alcotest.fail e
  | Ok npu ->
    let d = npu.Framework.decomposed in
    let compile ?cost_model ?cost_cache () =
      Mapping.compile ?cost_model ?cost_cache ~name:"npu-t6" ~control:d.Decompose.control
        ~data:d.Decompose.data ()
    in
    let cost_cache = Mapping.cost_cache () in
    let estimate = compile ~cost_cache () in
    let npu_priced = compile ~cost_model:Mapping.npu_cost_model ~cost_cache () in
    Alcotest.(check string)
      "NPU model through a shared cache"
      (structural_digest (compile ~cost_model:Mapping.npu_cost_model ()))
      (structural_digest npu_priced);
    Alcotest.(check string)
      "estimate model through the same cache" (structural_digest (compile ()))
      (structural_digest estimate);
    Alcotest.(check string) "the NPU mapping is pinned" "28031e963080ebbff31fcb3cf06426f0"
      (structural_digest npu_priced)

let test_registry () =
  let npu = Lazy.force npu_result in
  let r = Mapdb.create () in
  Mapdb.register r npu.Framework.mapping;
  Alcotest.(check (list string)) "names" [ "npu-t6" ] (Mapdb.names r);
  Alcotest.(check bool) "missing" true (Mapdb.find r "ghost" = None);
  match Mapdb.find r "npu-t6" with
  | None -> Alcotest.fail "npu-t6 not found"
  | Some plan ->
    Alcotest.(check string) "find" "npu-t6" plan.Mapdb.mapping.Mapping.accel_name;
    let sizes =
      List.map
        (fun (lp : Mapdb.level_plan) -> List.length lp.Mapdb.pieces)
        (Mapdb.levels plan ~fewest_first:true ~whole_device:false)
    in
    Alcotest.(check bool) "several levels" true (List.length sizes > 1);
    Alcotest.(check (list int)) "fewest first" (List.sort compare sizes) sizes

(* ---------------- Runtime ---------------- *)

let runtime_fixture policy =
  let npu = Lazy.force npu_result in
  let registry = Mapdb.create () in
  Mapdb.register registry npu.Framework.mapping;
  let cluster = Cluster.create () in
  (Runtime.create ~policy cluster registry, cluster)

let test_runtime_greedy_deploys () =
  let rt, cluster = runtime_fixture Runtime.greedy in
  match Runtime.deploy rt ~accel:"npu-t6" with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check int) "single node" 1 (List.length (Runtime.nodes_used d));
    Alcotest.(check int) "6 tiles" 6 (Runtime.tiles_deployed d);
    Alcotest.(check bool) "reconfig > 0" true (d.Runtime.reconfig_us > 0.0);
    Alcotest.(check bool) "blocks allocated" true (Cluster.total_free_vbs cluster < 55);
    Runtime.undeploy rt d;
    Alcotest.(check int) "all freed" 55 (Cluster.total_free_vbs cluster)

let test_runtime_sharing () =
  (* Greedy spatial sharing: several 6-tile instances coexist; the
     baseline policy fits exactly one per device. *)
  let rt, _ = runtime_fixture Runtime.greedy in
  let count = ref 0 in
  let rec go () =
    match Runtime.deploy rt ~accel:"npu-t6" with
    | Ok _ ->
      incr count;
      if !count < 20 then go ()
    | Error _ -> ()
  in
  go ();
  (* 6-tile piece: 3 engine blocks + 3 control = 6 VBs; two fit per
     XCVU37P (15 VBs) and one on the XCKU115 => 7 concurrent. *)
  Alcotest.(check bool) (Printf.sprintf "many instances (%d)" !count) true (!count >= 7);
  let rt_base, _ = runtime_fixture Runtime.baseline in
  let count_base = ref 0 in
  let rec go2 () =
    match Runtime.deploy rt_base ~accel:"npu-t6" with
    | Ok _ ->
      incr count_base;
      if !count_base < 20 then go2 ()
    | Error _ -> ()
  in
  go2 ();
  Alcotest.(check int) "baseline: one per device" 4 !count_base;
  Alcotest.(check bool) "sharing beats baseline" true (!count > !count_base)

let test_runtime_multi_fpga () =
  (* npu-t32 fits no single device; greedy spans two. *)
  match Framework.build_npu ~tiles:32 () with
  | Error e -> Alcotest.fail e
  | Ok npu ->
    let registry = Mapdb.create () in
    Mapdb.register registry npu.Framework.mapping;
    let cluster = Cluster.create () in
    let rt = Runtime.create ~policy:Runtime.greedy cluster registry in
    (match Runtime.deploy rt ~accel:"npu-t32" with
    | Error e -> Alcotest.fail e
    | Ok d ->
      Alcotest.(check int) "two nodes" 2 (List.length (Runtime.nodes_used d));
      Alcotest.(check int) "32 tiles" 32 (Runtime.tiles_deployed d));
    (* the baseline policy cannot place it at all *)
    let rt_base = Runtime.create ~policy:Runtime.baseline (Cluster.create ()) registry in
    (match Runtime.deploy rt_base ~accel:"npu-t32" with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "baseline should fail on multi-FPGA accel")

let test_runtime_restricted_same_type () =
  match Framework.build_npu ~tiles:32 () with
  | Error e -> Alcotest.fail e
  | Ok npu ->
    let registry = Mapdb.create () in
    Mapdb.register registry npu.Framework.mapping;
    let cluster = Cluster.create () in
    let rt = Runtime.create ~policy:Runtime.restricted cluster registry in
    (match Runtime.deploy rt ~accel:"npu-t32" with
    | Error e -> Alcotest.fail e
    | Ok d ->
      let kinds =
        Runtime.nodes_used d
        |> List.map (fun i -> (Cluster.node cluster i).Mlv_cluster.Node.kind)
        |> List.sort_uniq compare
      in
      Alcotest.(check int) "single device type" 1 (List.length kinds))

let test_runtime_unknown_accel () =
  let rt, _ = runtime_fixture Runtime.greedy in
  match Runtime.deploy rt ~accel:"ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected unknown accel error"

let test_runtime_exhaustion_and_recovery () =
  let rt, cluster = runtime_fixture Runtime.greedy in
  let deployments = ref [] in
  let rec fill () =
    match Runtime.deploy rt ~accel:"npu-t6" with
    | Ok d ->
      deployments := d :: !deployments;
      fill ()
    | Error _ -> ()
  in
  fill ();
  Alcotest.(check bool) "eventually exhausted" true (!deployments <> []);
  (match Runtime.deploy rt ~accel:"npu-t6" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should be exhausted");
  List.iter (Runtime.undeploy rt) !deployments;
  Alcotest.(check int) "recovered" 55 (Cluster.total_free_vbs cluster);
  match Runtime.deploy rt ~accel:"npu-t6" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deploy after recovery failed: %s" e

(* ---------------- Scale-out ---------------- *)

let test_scale_out_generate_valid () =
  List.iter
    (fun kind ->
      let p, lay =
        Scale_out.generate kind ~hidden:32 ~input:32 ~timesteps:3 ~parts:2 ~part:0
      in
      Alcotest.(check (list string)) "valid" [] (Program.validate p);
      Alcotest.(check int) "slice" 16 lay.Scale_out.slice)
    [ Codegen.Lstm; Codegen.Gru ]

let test_scale_out_validation () =
  Alcotest.(check bool) "parts < 2" true
    (try
       ignore (Scale_out.generate Codegen.Lstm ~hidden:32 ~input:32 ~timesteps:1 ~parts:1 ~part:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "indivisible" true
    (try
       ignore (Scale_out.generate Codegen.Lstm ~hidden:33 ~input:33 ~timesteps:1 ~parts:2 ~part:0);
       false
     with Invalid_argument _ -> true)

let check_scale_out_matches_golden ?(reorder = false) ?(parts = 2) kind =
  let hidden = 24 and input = 24 and timesteps = 4 in
  let _, full_lay = Codegen.generate kind ~hidden ~input ~timesteps in
  let rng = Rng.create 99 in
  let full_dram = Codegen.init_dram ~rng full_lay in
  let golden = Codegen.golden full_lay (Array.copy full_dram) in
  let gen part = Scale_out.generate kind ~hidden ~input ~timesteps ~parts ~part in
  let progs =
    Array.init parts (fun part ->
        let p, lay = gen part in
        if reorder then Scale_out.reorder ~sync_base:lay.Scale_out.sync_base p else p)
  in
  let lays = Array.init parts (fun part -> snd (gen part)) in
  let drams =
    Array.map (fun lay -> Scale_out.init_part_dram ~full_layout:full_lay ~full_dram lay) lays
  in
  let _ = Scale_out.run_parts ~exact:true progs lays ~drams ~max_steps:1_000_000 in
  Array.iteri
    (fun part lay ->
      let slice =
        Array.sub drams.(part)
          (lay.Scale_out.h_out_base + ((timesteps - 1) * lay.Scale_out.slice))
          lay.Scale_out.slice
      in
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "part %d h[%d]" part i)
            golden.(timesteps - 1).((part * lay.Scale_out.slice) + i)
            v)
        slice)
    lays

let test_scale_out_lstm_golden () = check_scale_out_matches_golden Codegen.Lstm
let test_scale_out_gru_golden () = check_scale_out_matches_golden Codegen.Gru

let test_scale_out_reordered_golden () =
  check_scale_out_matches_golden ~reorder:true Codegen.Lstm;
  check_scale_out_matches_golden ~reorder:true Codegen.Gru

let test_scale_out_four_parts () =
  check_scale_out_matches_golden ~parts:4 Codegen.Lstm

let test_reorder_sinks_reads () =
  let p, lay =
    Scale_out.generate Codegen.Lstm ~hidden:16 ~input:16 ~timesteps:2 ~parts:2 ~part:0
  in
  let r = Scale_out.reorder ~sync_base:lay.Scale_out.sync_base p in
  Alcotest.(check int) "same length" (Program.length p) (Program.length r);
  (* After the step-0 sync read, the original program has step 1's
     input-side MVMs; the reordered one must have hoisted them before
     the read. *)
  let instrs = r.Program.instrs in
  let read_idx = ref (-1) in
  Array.iteri
    (fun i instr ->
      match instr with
      | Instr.V_rd { addr; _ } when addr >= lay.Scale_out.sync_base && !read_idx < 0 ->
        read_idx := i
      | _ -> ())
    instrs;
  Alcotest.(check bool) "found first sync read" true (!read_idx >= 0);
  (* Count MVMs before the first sync read: the 8 of step 0 plus the
     4 hoisted input-side MVMs of step 1. *)
  let mvms_before = ref 0 in
  Array.iteri
    (fun i instr -> if i < !read_idx then match instr with Instr.Mvm _ -> incr mvms_before | _ -> ())
    instrs;
  Alcotest.(check int) "hoisted Wx" 12 !mvms_before

let test_two_fpga_latency_shapes () =
  let dev = Device.get Device.XCVU37P in
  let cfg = Mlv_accel.Config.make ~tiles:10 () in
  let lat ~reordered added =
    Scale_out.two_fpga_latency_us ~config:cfg ~device:dev ~added_latency_us:added
      ~reordered Codegen.Lstm ~hidden:1024 ~input:1024 ~timesteps:20
  in
  (* Fig. 11: LSTM hides the added latency when reordered. *)
  let flat = lat ~reordered:true 1.0 /. lat ~reordered:true 0.0 in
  Alcotest.(check bool) (Printf.sprintf "LSTM flat (%.3f)" flat) true (flat < 1.05);
  (* Without reordering the latency grows. *)
  Alcotest.(check bool) "unreordered grows" true
    (lat ~reordered:false 1.0 > 1.15 *. lat ~reordered:false 0.0);
  (* Reordering never hurts. *)
  Alcotest.(check bool) "reorder helps" true (lat ~reordered:true 0.6 <= lat ~reordered:false 0.6)

let test_two_fpga_gru_crossover () =
  let dev = Device.get Device.XCVU37P in
  let cfg = Mlv_accel.Config.make ~tiles:10 () in
  let lat added =
    Scale_out.two_fpga_latency_us ~config:cfg ~device:dev ~added_latency_us:added
      ~reordered:true Codegen.Gru ~hidden:1024 ~input:1024 ~timesteps:20
  in
  (* GRU h=1024 hides up to ~0.6us, then the latency grows (paper
     Fig. 11). *)
  Alcotest.(check bool) "hidden at 0.2" true (lat 0.2 < 1.05 *. lat 0.0);
  Alcotest.(check bool) "exposed at 1.2" true (lat 1.2 > 1.15 *. lat 0.0)

(* Property: reordering preserves program semantics (co-simulated
   final state matches) for random small shapes. *)
let prop_reorder_semantics =
  QCheck.Test.make ~name:"reorder preserves semantics" ~count:8
    QCheck.(pair (int_range 1 3) bool)
    (fun (timesteps, is_gru) ->
      let kind = if is_gru then Codegen.Gru else Codegen.Lstm in
      let hidden = 16 and input = 16 and parts = 2 in
      let _, full_lay = Codegen.generate kind ~hidden ~input ~timesteps in
      let rng = Rng.create (timesteps * 31) in
      let full_dram = Codegen.init_dram ~rng full_lay in
      let run reorder =
        let gen part = Scale_out.generate kind ~hidden ~input ~timesteps ~parts ~part in
        let progs =
          Array.init parts (fun part ->
              let p, lay = gen part in
              if reorder then Scale_out.reorder ~sync_base:lay.Scale_out.sync_base p else p)
        in
        let lays = Array.init parts (fun part -> snd (gen part)) in
        let drams =
          Array.map
            (fun lay -> Scale_out.init_part_dram ~full_layout:full_lay ~full_dram lay)
            lays
        in
        let _ = Scale_out.run_parts ~exact:true progs lays ~drams ~max_steps:1_000_000 in
        Array.map Array.copy drams
      in
      run false = run true)


(* ---------------- Runtime stats / hypervisor ---------------- *)

let test_runtime_stats () =
  let rt, _ = runtime_fixture Runtime.greedy in
  let s0 = Runtime.stats rt in
  Alcotest.(check int) "nothing live" 0 s0.Runtime.live;
  Alcotest.(check int) "55 total" 55 s0.Runtime.vbs_total;
  Alcotest.(check (float 1e-9)) "zero util" 0.0 (Runtime.cluster_utilization rt);
  match Runtime.deploy rt ~accel:"npu-t6" with
  | Error e -> Alcotest.fail e
  | Ok d ->
    let s1 = Runtime.stats rt in
    Alcotest.(check int) "one live" 1 s1.Runtime.live;
    Alcotest.(check bool) "blocks used" true (s1.Runtime.vbs_used > 0);
    Runtime.undeploy rt d;
    Alcotest.(check int) "freed" 0 (Runtime.stats rt).Runtime.vbs_used

let test_hypervisor_protocol () =
  let rt, _ = runtime_fixture Runtime.greedy in
  let h = Hypervisor.create rt in
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  Alcotest.(check string) "list" "ok npu-t6" (Hypervisor.handle h "list");
  let resp = Hypervisor.handle h "deploy npu-t6" in
  Alcotest.(check bool) ("deploy: " ^ resp) true (starts_with "ok id=0" resp);
  Alcotest.(check int) "one handle" 1 (List.length (Hypervisor.live_handles h));
  Alcotest.(check bool) "status live=1" true
    (starts_with "ok live=1" (Hypervisor.handle h "status"));
  Alcotest.(check bool) "deployments lists it" true
    (starts_with "ok 0:npu-t6" (Hypervisor.handle h "deployments"));
  Alcotest.(check string) "undeploy" "ok" (Hypervisor.handle h "undeploy 0");
  Alcotest.(check bool) "status empty" true
    (starts_with "ok live=0" (Hypervisor.handle h "status"));
  (* error paths *)
  Alcotest.(check bool) "unknown accel" true
    (starts_with "error" (Hypervisor.handle h "deploy ghost"));
  Alcotest.(check bool) "bad id" true
    (starts_with "error" (Hypervisor.handle h "undeploy zz"));
  Alcotest.(check bool) "unknown id" true
    (starts_with "error" (Hypervisor.handle h "undeploy 99"));
  Alcotest.(check bool) "bad command" true
    (starts_with "error" (Hypervisor.handle h "frobnicate"));
  Alcotest.(check bool) "empty" true (starts_with "error" (Hypervisor.handle h "  "));
  Alcotest.(check bool) "help" true (starts_with "ok" (Hypervisor.handle h "help"));
  Alcotest.(check string) "rebalance empty" "ok moved=0 attempted=0"
    (Hypervisor.handle h "rebalance")

let test_multi_fpga_latency_parts () =
  let dev = Device.get Device.XCVU37P in
  let cfg = Mlv_accel.Config.make ~tiles:10 () in
  let lat parts =
    Scale_out.multi_fpga_latency_us ~parts ~config:cfg ~device:dev
      ~added_latency_us:0.0 ~reordered:true Codegen.Lstm ~hidden:1024 ~input:1024
      ~timesteps:10
  in
  (* more parts -> more transfer volume and hops; with fixed per-part
     compute the latency should not improve *)
  Alcotest.(check bool) "4 parts costs more transfer" true (lat 4 >= lat 2 *. 0.9);
  Alcotest.(check (float 1e-9)) "wrapper consistent" (lat 2)
    (Scale_out.two_fpga_latency_us ~config:cfg ~device:dev ~added_latency_us:0.0
       ~reordered:true Codegen.Lstm ~hidden:1024 ~input:1024 ~timesteps:10)


(* ---------------- Top-down flow ---------------- *)

let test_top_down_small_accel () =
  let design = parse_ok small_accel_src in
  match Top_down.run design ~top:"accel_top" with
  | Error e -> Alcotest.failf "top-down failed: %s" e
  | Ok r -> (
    Alcotest.(check (list string)) "valid" [] (SB.validate r.Decompose.data);
    match r.Decompose.data with
    | SB.Node { SB.composition = SB.Data_parallel; children = [ _; _ ]; _ } -> ()
    | other ->
      Alcotest.failf "expected DP of 2, got %s" (Format.asprintf "%a" SB.pp other))

let test_top_down_matches_bottom_up () =
  (* The paper's two flows must extract the same tree shape on the
     case-study accelerator. *)
  let npu = Lazy.force npu_result in
  match
    Top_down.run ~config:Framework.decompose_config npu.Framework.design ~top:"bw_npu"
  with
  | Error e -> Alcotest.failf "top-down failed: %s" e
  | Ok td ->
    Alcotest.(check bool) "same shape" true
      (SB.equal_shape npu.Framework.decomposed.Decompose.data td.Decompose.data)

let test_top_down_no_control_error () =
  let src =
    {|
module only_data (x, o);
  input [3:0] x;
  output [3:0] o;
  mlv_not g (.a(x), .o(o));
endmodule
|}
  in
  match Top_down.run (parse_ok src) ~top:"only_data" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected missing-control error"

let test_to_dot () =
  let t =
    SB.pipeline ~name:"p" ~link_bits:[ 64 ]
      [ mk_leaf "a"; SB.data_par ~name:"d" [ mk_leaf "b"; mk_leaf "b2" ] ]
  in
  let dot = SB.to_dot t in
  let contains needle =
    let nh = String.length dot and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub dot i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph");
  Alcotest.(check bool) "has DP" true (contains "DP d");
  Alcotest.(check bool) "has PIPE" true (contains "PIPE p");
  Alcotest.(check bool) "has bandwidth" true (contains "64 b");
  Alcotest.(check bool) "closes" true (contains "}")


(* The hypervisor's repack, one unbudgeted defrag pass over [rt]:
   (moved, attempted). *)
let rebalance rt =
  let reply = Hypervisor.handle (Hypervisor.create rt) "rebalance" in
  match Scanf.sscanf_opt reply "ok moved=%d attempted=%d%!" (fun m a -> (m, a)) with
  | Some counts -> Ok counts
  | None -> Error reply

let test_runtime_rebalance_defragments () =
  (* Fill the cluster with small instances, free alternating ones to
     fragment it, and show a large instance only fits after
     rebalancing. *)
  let npu6 = Lazy.force npu_result in
  let registry = Mapdb.create () in
  Mapdb.register registry npu6.Framework.mapping;
  (match Framework.build_npu ~tiles:21 () with
  | Ok npu21 -> Mapdb.register registry npu21.Framework.mapping
  | Error e -> Alcotest.fail e);
  let cluster = Cluster.create () in
  let rt = Runtime.create ~policy:Runtime.greedy cluster registry in
  let small = ref [] in
  for _ = 1 to 7 do
    match Runtime.deploy rt ~accel:"npu-t6" with
    | Ok d -> small := d :: !small
    | Error e -> Alcotest.failf "fill failed: %s" e
  done;
  Alcotest.(check int) "seven small instances" 7 (List.length !small);
  (* free one instance on each XCVU37P *)
  let on_node n d = Runtime.nodes_used d = [ n ] in
  List.iter
    (fun node ->
      match List.find_opt (on_node node) !small with
      | Some d ->
        Runtime.undeploy rt d;
        small := List.filter (fun x -> x != d) !small
      | None -> Alcotest.failf "no small instance on node %d" node)
    [ 0; 1; 2 ];
  (* Fragmented: no device has the 14 blocks npu-t21 wants, so the
     runtime is forced into a multi-FPGA split (paying inter-FPGA
     overhead). *)
  (match Runtime.deploy rt ~accel:"npu-t21" with
  | Ok d ->
    Alcotest.(check bool) "forced multi-node" true
      (List.length (Runtime.nodes_used d) >= 2);
    Runtime.undeploy rt d
  | Error _ -> () (* also acceptable: nothing fits at all *));
  (match rebalance rt with
  | Ok (moved, attempted) ->
    Alcotest.(check bool) "something moved" true (moved > 0);
    Alcotest.(check bool) "moved <= attempted" true (moved <= attempted)
  | Error e -> Alcotest.failf "rebalance failed: %s" e);
  Alcotest.(check (list (triple int int int)))
    "repacked occupancy"
    [ (0, 12, 15); (1, 12, 15); (2, 0, 15); (3, 0, 10) ]
    (Runtime.stats rt).Runtime.per_node;
  match Runtime.deploy rt ~accel:"npu-t21" with
  | Ok d ->
    Alcotest.(check int) "single node after defrag" 1
      (List.length (Runtime.nodes_used d))
  | Error e -> Alcotest.failf "still cannot place after rebalance: %s" e

let test_runtime_rebalance_empty () =
  let rt, _ = runtime_fixture Runtime.greedy in
  Alcotest.(check string) "nothing to move, nothing tried" "ok moved=0 attempted=0"
    (Hypervisor.handle (Hypervisor.create rt) "rebalance")

let per_node_free rt =
  List.map
    (fun (node, used, total) -> (node, total - used))
    (Runtime.stats rt).Runtime.per_node

let test_runtime_rebalance_rollback () =
  (* When the redeploy inside each of the pass's migrations fails,
     every torn-down placement must be restored with the controllers'
     free-block counts exactly where they started. *)
  let rt, cluster = runtime_fixture Runtime.greedy in
  let ds =
    List.init 3 (fun _ ->
        match Runtime.deploy rt ~accel:"npu-t6" with
        | Ok d -> d
        | Error e -> Alcotest.failf "deploy failed: %s" e)
  in
  let free_before = per_node_free rt in
  let nodes_before = List.map Runtime.nodes_used ds in
  (* make every redeploy fail mid-rebalance *)
  Mapdb.remove (Runtime.registry rt) "npu-t6";
  let failed = Obs.Counter.get "runtime.migrate.fail" in
  let failed_before = Obs.Counter.value failed in
  (match rebalance rt with
  | Ok (moved, attempted) ->
    Alcotest.(check int) "three attempted" 3 attempted;
    Alcotest.(check int) "nothing moved" 0 moved
  | Error e -> Alcotest.failf "rebalance replied %s" e);
  Alcotest.(check int) "every migration failed with the accel unregistered" 3
    (Obs.Counter.value failed - failed_before);
  Alcotest.(check bool) "index consistent after rollback" true
    (Runtime.index_consistent rt);
  Alcotest.(check (list (pair int int))) "free blocks restored exactly" free_before
    (per_node_free rt);
  Alcotest.(check int) "deployments survive" 3 (List.length (Runtime.deployments rt));
  List.iter2
    (fun d nodes ->
      Alcotest.(check (list int)) "placement back on original nodes" nodes
        (Runtime.nodes_used d))
    ds nodes_before;
  (* handles grafted by the rollback stay usable *)
  List.iter (Runtime.undeploy rt) ds;
  Alcotest.(check int) "all freed" 55 (Cluster.total_free_vbs cluster)

let test_runtime_failover_frees_exactly () =
  (* fail_node must fully release the victim's blocks and charge the
     destination nodes exactly the re-placed deployment's blocks. *)
  let rt, cluster = runtime_fixture Runtime.greedy in
  let d =
    match Runtime.deploy rt ~accel:"npu-t6" with
    | Ok d -> d
    | Error e -> Alcotest.failf "deploy failed: %s" e
  in
  let victim =
    match Runtime.nodes_used d with
    | [ n ] -> n
    | _ -> Alcotest.fail "expected single-node deployment"
  in
  let free_before = per_node_free rt in
  let f = Runtime.fail_node rt victim in
  Alcotest.(check int) "recovered" 1 f.Runtime.recovered;
  Alcotest.(check int) "nothing lost" 0 (List.length f.Runtime.lost);
  let free_after = per_node_free rt in
  let totals =
    List.map (fun (node, _, total) -> (node, total)) (Runtime.stats rt).Runtime.per_node
  in
  Alcotest.(check int) "victim fully free" (List.assoc victim totals)
    (List.assoc victim free_after);
  let placed_on node =
    List.fold_left
      (fun acc (p : Runtime.placement) ->
        if p.Runtime.node_id = node then
          acc + p.Runtime.bitstream.Mlv_vital.Bitstream.vbs
        else acc)
      0 d.Runtime.placements
  in
  List.iter
    (fun (node, before) ->
      if node <> victim then
        Alcotest.(check int)
          (Printf.sprintf "node %d free count" node)
          (before - placed_on node)
          (List.assoc node free_after))
    free_before;
  Runtime.undeploy rt d;
  Runtime.restore_node rt victim;
  Alcotest.(check int) "all freed" 55 (Cluster.total_free_vbs cluster)

let test_hypervisor_metrics_commands () =
  let rt, _ = runtime_fixture Runtime.greedy in
  let h = Hypervisor.create rt in
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  Obs.reset ();
  ignore (Hypervisor.handle h "deploy npu-t6");
  Alcotest.(check bool) "metrics header" true
    (starts_with "ok counters=" (Hypervisor.handle h "metrics"));
  let json_resp = Hypervisor.handle h "metrics json" in
  Alcotest.(check bool) "json prefixed ok" true (starts_with "ok {" json_resp);
  let payload = String.sub json_resp 3 (String.length json_resp - 3) in
  Alcotest.(check bool) "valid json" true (Obs.Json.is_valid payload);
  let trace = Hypervisor.handle h "trace deploy" in
  Alcotest.(check bool) "trace matches deploy span" true
    (starts_with "ok matched=" trace && not (starts_with "ok matched=0" trace));
  Alcotest.(check string) "counters reset" "ok" (Hypervisor.handle h "counters reset");
  Alcotest.(check string) "trace empty after reset" "ok matched=0"
    (Hypervisor.handle h "trace deploy")

let test_hypervisor_timeline_and_top () =
  let rt, _ = runtime_fixture Runtime.greedy in
  let h = Hypervisor.create rt in
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      Alcotest.(check bool) "timeline empty while disabled" true
        (starts_with "ok events=0 shown=0 dropped=0" (Hypervisor.handle h "timeline"));
      Alcotest.(check string) "timeline on" "ok tracing=on"
        (Hypervisor.handle h "timeline on");
      Obs.Trace.task Obs.Trace.Arrive 1 ~label:"npu-t6";
      Obs.Trace.mark ~node:0 "fault.crash";
      Alcotest.(check bool) "timeline shows events" true
        (starts_with "ok events=2 shown=2 dropped=0" (Hypervisor.handle h "timeline"));
      Alcotest.(check string) "timeline off" "ok tracing=off"
        (Hypervisor.handle h "timeline off");
      Alcotest.(check bool) "timeline usage" true
        (starts_with "error usage" (Hypervisor.handle h "timeline sideways"));
      (* top reads the labeled sysim series *)
      Obs.Counter.incr (Obs.Counter.get_labeled "sysim.tasks.completed" [ ("node", "0") ]);
      Obs.Histogram.observe
        (Obs.Histogram.get_labeled "sysim.task_sojourn_us" [ ("kind", "XCVU37P") ])
        100.0;
      let top = Hypervisor.handle h "top" in
      let contains needle hay =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "top header" true (starts_with "ok nodes=" top);
      Alcotest.(check bool) "top names the kind" true (contains "kind XCVU37P" top);
      Alcotest.(check bool) "top counts node completions" true
        (contains "completed=1" top))


let test_npu_text_roundtrip () =
  (* Full artifact round-trip: generate the NPU, print it to the
     textual RTL subset, re-parse, and check the re-parsed design
     validates and decomposes to the same tree shape. *)
  let npu = Lazy.force npu_result in
  let text = Mlv_rtl.Printer.design_to_string npu.Framework.design in
  match Parser.parse_string text with
  | Error e -> Alcotest.failf "re-parse failed: %s" e
  | Ok design2 -> (
    Alcotest.(check (list string)) "re-parsed validates" [] (Design.validate design2);
    match Decompose.run ~config:Framework.decompose_config design2 ~top:"bw_npu" with
    | Error e -> Alcotest.failf "re-decompose failed: %s" e
    | Ok r2 ->
      Alcotest.(check bool) "same tree shape" true
        (SB.equal_shape npu.Framework.decomposed.Decompose.data r2.Decompose.data))


let test_decompose_with_simplify () =
  (* Decomposing with pre-simplification gives the same tree shape on
     the NPU (its generated RTL has no dead logic to remove, but the
     pass must at least be harmless). *)
  let npu = Lazy.force npu_result in
  let config = { Framework.decompose_config with Decompose.simplify = true } in
  match Decompose.run ~config npu.Framework.design ~top:"bw_npu" with
  | Error e -> Alcotest.failf "decompose with simplify failed: %s" e
  | Ok r ->
    Alcotest.(check bool) "same shape" true
      (SB.equal_shape npu.Framework.decomposed.Decompose.data r.Decompose.data)

(* Property: generating and decomposing through one session equals
   doing each fresh, module by module and by structural digest of the
   result (its stats, so [eq_checks], included).  The configurations
   are a base and a variant that differs from it in at most one field,
   built in the order (base, t1), (variant, t2), (base, t2): a module
   key that forgot a field would hand the variant the base's module. *)
let prop_session_matches_fresh =
  let module Config = Mlv_accel.Config in
  let module Rtl_gen = Mlv_accel.Rtl_gen in
  let field k =
    QCheck.Gen.(
      match k with
      | 0 -> map (fun v (c : Config.t) -> { c with Config.lanes = v }) (oneofl [ 1; 2; 4; 8 ])
      | 1 -> map (fun v (c : Config.t) -> { c with Config.rows_per_tile = v }) (int_range 1 3)
      | 2 -> map (fun v (c : Config.t) -> { c with Config.vrf_words = v }) (oneofl [ 16; 64; 2048 ])
      | 3 ->
        map (fun v (c : Config.t) -> { c with Config.instr_buffer_words = v }) (oneofl [ 16; 512 ])
      | 4 ->
        map
          (fun v (c : Config.t) -> { c with Config.mem_kind = v })
          (oneofl [ Config.Bram_only; Config.Bram_uram ])
      | 5 -> map (fun v (c : Config.t) -> { c with Config.mvm_mantissa_bits = v }) (oneofl [ 4; 6 ])
      | _ -> return Fun.id)
  in
  let gen =
    QCheck.Gen.(
      let* base =
        List.fold_left
          (fun acc k -> map2 (fun f c -> f c) (field k) acc)
          (return (Config.make ~tiles:1 ()))
          [ 0; 1; 2; 3; 4; 5 ]
      in
      let* vary = int_range 0 6 >>= field in
      let* t1 = int_range 1 5 and* t2 = int_range 1 5 in
      return (base, vary base, t1, t2))
  in
  let print ((b : Config.t), (v : Config.t), t1, t2) =
    let show (c : Config.t) =
      Printf.sprintf "{lanes=%d rows=%d vrf=%d ibuf=%d uram=%b mant=%d}" c.Config.lanes
        c.Config.rows_per_tile c.Config.vrf_words c.Config.instr_buffer_words
        (c.Config.mem_kind = Config.Bram_uram) c.Config.mvm_mantissa_bits
    in
    Printf.sprintf "base %s variant %s tiles %d, %d" (show b) (show v) t1 t2
  in
  QCheck.Test.make ~name:"session matches fresh" ~count:25 (QCheck.make ~print gen)
    (fun (base, variant, t1, t2) ->
      let shared = Rtl_gen.shared () and session = Decompose.session () in
      let decompose ?session design =
        Decompose.run ~config:Framework.decompose_config ?session design
          ~top:Rtl_gen.top_name
      in
      let build (c : Config.t) tiles =
        let c = { c with Config.tiles } in
        let design = Rtl_gen.generate ~shared c in
        let fresh = Rtl_gen.generate c in
        if Design.modules design <> Design.modules fresh then
          QCheck.Test.fail_reportf "tiles %d: generated modules differ" tiles;
        if
          structural_digest (decompose ~session design)
          <> structural_digest (decompose fresh)
        then QCheck.Test.fail_reportf "tiles %d: decompositions differ" tiles;
        design
      in
      let first = build base t1 in
      ignore (build variant t2);
      let last = build base t2 in
      (* The sharing is real: one dot unit value serves both builds. *)
      Design.find_exn first "dot_unit" == Design.find_exn last "dot_unit")

(* Property: for a generated k-lane accelerator, the decomposer's
   data tree holds exactly the data-path leaf blocks and the root is
   a k-way data-parallel node. *)
let prop_decompose_lane_accel =
  QCheck.Test.make ~name:"decompose recovers k lanes" ~count:10
    QCheck.(pair (int_range 2 6) (int_range 1 3))
    (fun (k, stages) ->
      let buf = Buffer.create 512 in
      Buffer.add_string buf
        "(* control_path *)\nmodule ctl (go);\n  output go;\n  wire n;\n  mlv_const #(.VALUE(1)) c (.o(n));\n  mlv_reg r (.d(n), .q(go));\nendmodule\n";
      for s = 0 to stages - 1 do
        Buffer.add_string buf
          (Printf.sprintf
             "module stage%d (x, o);\n  input [7:0] x;\n  output [7:0] o;\n  wire [7:0] t;\n  mlv_add a (.a(x), .b(x), .o(t));\n  mlv_reg r (.d(t), .q(o));\nendmodule\n"
             s)
      done;
      Buffer.add_string buf "module lane (x, o);\n  input [7:0] x;\n  output [7:0] o;\n";
      for s = 0 to stages - 1 do
        Buffer.add_string buf (Printf.sprintf "  wire [7:0] w%d;\n" s)
      done;
      for s = 0 to stages - 1 do
        let src = if s = 0 then "x" else Printf.sprintf "w%d" (s - 1) in
        let dst = if s = stages - 1 then "o" else Printf.sprintf "w%d" s in
        Buffer.add_string buf
          (Printf.sprintf "  stage%d s%d (.x(%s), .o(%s));\n" s s src dst)
      done;
      Buffer.add_string buf "endmodule\nmodule ptop (";
      Buffer.add_string buf
        (String.concat ", "
           (List.init k (fun i -> Printf.sprintf "x%d, o%d" i i)));
      Buffer.add_string buf ");\n";
      for i = 0 to k - 1 do
        Buffer.add_string buf
          (Printf.sprintf "  input [7:0] x%d;\n  output [7:0] o%d;\n" i i)
      done;
      Buffer.add_string buf "  wire go;\n  ctl c (.go(go));\n";
      for i = 0 to k - 1 do
        Buffer.add_string buf (Printf.sprintf "  lane l%d (.x(x%d), .o(o%d));\n" i i i)
      done;
      Buffer.add_string buf "endmodule\n";
      let design =
        match Parser.parse_string (Buffer.contents buf) with
        | Ok d -> d
        | Error e -> failwith e
      in
      match Decompose.run design ~top:"ptop" with
      | Error _ -> false
      | Ok r -> (
        List.length (SB.leaves r.Decompose.data) = k * stages
        &&
        match r.Decompose.data with
        | SB.Node { SB.composition = SB.Data_parallel; children; _ } ->
          List.length children = k
        | SB.Leaf _ -> k = 1 && stages = 1
        | _ -> stages > 1 && k = 1))


(* Under mailbox hazards the reorderer hoists one sample's sends above
   the previous sample's receives, interleaving samples across the two
   register banks of [generate_mlp]; the numerics are checked at
   several batches and part counts. *)
let test_mlp_scale_out_golden () =
  List.iter
    (fun (dims, batch, parts) ->
      let spec = Mlv_isa.Mlp.make_spec dims in
      let _, full_lay = Mlv_isa.Mlp.generate spec ~batch in
      let rng = Rng.create 41 in
      let full_dram = Mlv_isa.Mlp.init_dram ~rng full_lay in
      let golden = Mlv_isa.Mlp.golden full_lay (Array.copy full_dram) in
      List.iter
        (fun reorder ->
          let progs =
            Array.init parts (fun part ->
                let p, l = Scale_out.generate_mlp spec ~batch ~parts ~part in
                Alcotest.(check (list string)) "part valid" [] (Program.validate p);
                if reorder then Scale_out.reorder ~sync_base:l.Scale_out.msync_base p else p)
          in
          let lays =
            Array.init parts (fun part ->
                snd (Scale_out.generate_mlp spec ~batch ~parts ~part))
          in
          let drams =
            Array.map
              (fun l -> Scale_out.init_mlp_part_dram ~full_layout:full_lay ~full_dram l)
              lays
          in
          let _ =
            Scale_out.run_mlp_parts ~exact:true progs lays ~drams ~max_steps:1_000_000
          in
          Array.iteri
            (fun part l ->
              for b = 0 to batch - 1 do
                let y =
                  Array.sub drams.(part)
                    (l.Scale_out.my_base + (b * l.Scale_out.out_slice))
                    l.Scale_out.out_slice
                in
                Array.iteri
                  (fun i v ->
                    Alcotest.(check (float 1e-9))
                      (Printf.sprintf "parts=%d batch=%d reorder=%b part %d b%d y[%d]"
                         parts batch reorder part b i)
                      golden.(b).((part * l.Scale_out.out_slice) + i)
                      v)
                  y
              done)
            lays)
        [ false; true ])
    [
      ([ 12; 16; 8 ], 3, 2);
      ([ 12; 16; 8 ], 6, 2);
      ([ 12; 24; 12 ], 4, 3);
      ([ 12; 24; 36; 12 ], 5, 3);
      ([ 12; 24; 36; 12 ], 6, 4);
    ]

let test_mlp_scale_out_validation () =
  let spec = Mlv_isa.Mlp.make_spec [ 12; 15; 8 ] in
  (* 15 not divisible by 2 *)
  Alcotest.(check bool) "indivisible layer" true
    (try
       ignore (Scale_out.generate_mlp spec ~batch:1 ~parts:2 ~part:0);
       false
     with Invalid_argument _ -> true)

let test_mlp_reorder_overlaps () =
  let dev = Device.get Device.XCVU37P in
  let cfg = Mlv_accel.Config.make ~tiles:10 () in
  let spec = Mlv_isa.Mlp.make_spec [ 1024; 2048; 1024 ] in
  let lat reordered added =
    Scale_out.mlp_latency_us ~parts:2 ~config:cfg ~device:dev ~added_latency_us:added
      ~reordered spec ~batch:20
  in
  Alcotest.(check bool) "reorder helps" true (lat true 0.6 < lat false 0.6);
  Alcotest.(check bool) "latency grows with delay" true (lat false 1.2 > lat false 0.0)


let test_runtime_node_failure () =
  let rt, _ = runtime_fixture Runtime.greedy in
  (* Three small instances; the packing puts two on one XCVU37P. *)
  let ds =
    List.init 3 (fun _ ->
        match Runtime.deploy rt ~accel:"npu-t6" with
        | Ok d -> d
        | Error e -> Alcotest.failf "deploy failed: %s" e)
  in
  let victim_node =
    match Runtime.nodes_used (List.hd ds) with
    | [ n ] -> n
    | _ -> Alcotest.fail "expected single-node deployment"
  in
  let f = Runtime.fail_node rt victim_node in
  Alcotest.(check (list int)) "marked failed" [ victim_node ] (Runtime.failed_nodes rt);
  Alcotest.(check int) "no deployment lost" 0 (List.length f.Runtime.lost);
  Alcotest.(check bool) "something recovered" true (f.Runtime.recovered >= 1);
  (* no live deployment touches the failed node anymore *)
  List.iter
    (fun d ->
      Alcotest.(check bool) "avoids failed node" false
        (List.mem victim_node (Runtime.nodes_used d)))
    (Runtime.deployments rt);
  (* new deployments also avoid it *)
  (match Runtime.deploy rt ~accel:"npu-t6" with
  | Ok d ->
    Alcotest.(check bool) "new deploy avoids failed" false
      (List.mem victim_node (Runtime.nodes_used d))
  | Error _ -> ());
  Runtime.restore_node rt victim_node;
  Alcotest.(check (list int)) "restored" [] (Runtime.failed_nodes rt)

let test_runtime_failover_loses_when_full () =
  (* Fail three of the four nodes: capacity collapses and some
     deployments are lost. *)
  let rt, _ = runtime_fixture Runtime.greedy in
  let deployed = ref 0 in
  (try
     while true do
       match Runtime.deploy rt ~accel:"npu-t6" with
       | Ok _ -> incr deployed
       | Error _ -> raise Exit
     done
   with Exit -> ());
  Alcotest.(check bool) "cluster filled" true (!deployed >= 7);
  let f0 = Runtime.fail_node rt 0 in
  let f1 = Runtime.fail_node rt 1 in
  let f2 = Runtime.fail_node rt 2 in
  let total_lost =
    List.length f0.Runtime.lost + List.length f1.Runtime.lost + List.length f2.Runtime.lost
  in
  Alcotest.(check bool) "some lost" true (total_lost > 0);
  (* survivors all live on node 3 *)
  List.iter
    (fun d ->
      Alcotest.(check (list int)) "on the last node" [ 3 ] (Runtime.nodes_used d))
    (Runtime.deployments rt)

let test_hypervisor_failover_commands () =
  let rt, _ = runtime_fixture Runtime.greedy in
  let h = Hypervisor.create rt in
  let starts_with prefix s =
    String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix
  in
  ignore (Hypervisor.handle h "deploy npu-t6");
  Alcotest.(check bool) "fail ok" true
    (starts_with "ok recovered=" (Hypervisor.handle h "fail 0"));
  Alcotest.(check string) "index after fail" "ok consistent=true"
    (Hypervisor.handle h "index");
  Alcotest.(check string) "restore" "ok" (Hypervisor.handle h "restore 0");
  Alcotest.(check string) "index after restore" "ok consistent=true"
    (Hypervisor.handle h "index");
  Alcotest.(check bool) "bad node" true
    (starts_with "error" (Hypervisor.handle h "fail 99"))


let test_hetero_partner_slowdown () =
  let dev = Device.get Device.XCVU37P in
  let cfg = Mlv_accel.Config.make ~tiles:10 () in
  let lat ~reordered slowdown =
    Scale_out.multi_fpga_latency_us ~partner_slowdown:slowdown ~parts:2 ~config:cfg
      ~device:dev ~added_latency_us:0.0 ~reordered Codegen.Lstm ~hidden:1024
      ~input:1024 ~timesteps:20
  in
  (* Without the overlap window the slower partner paces the barrier. *)
  Alcotest.(check bool) "in-order pays for skew" true
    (lat ~reordered:false 1.33 > 1.05 *. lat ~reordered:false 1.0);
  (* The reordering window absorbs moderate skew just like it absorbs
     ring latency. *)
  Alcotest.(check bool) "reordered absorbs skew" true
    (lat ~reordered:true 1.33 < 1.05 *. lat ~reordered:true 1.0);
  (* A drastically slower partner cannot be hidden. *)
  Alcotest.(check bool) "large skew exposed" true
    (lat ~reordered:true 3.0 > 1.3 *. lat ~reordered:true 1.0);
  Alcotest.(check (float 1e-9)) "1.0 is neutral"
    (lat ~reordered:true 1.0)
    (Scale_out.two_fpga_latency_us ~config:cfg ~device:dev ~added_latency_us:0.0
       ~reordered:true Codegen.Lstm ~hidden:1024 ~input:1024 ~timesteps:20)


(* Property: any sequence of deploys/undeploys conserves virtual
   blocks and never corrupts the allocator. *)
let prop_runtime_conservation =
  QCheck.Test.make ~name:"runtime conserves blocks" ~count:15
    QCheck.(list_of_size (Gen.int_range 1 25) (int_bound 99))
    (fun ops ->
      let rt, cluster = runtime_fixture Runtime.greedy in
      let live = ref [] in
      List.iter
        (fun op ->
          if op mod 3 = 0 && !live <> [] then begin
            (* undeploy a pseudo-random live deployment *)
            let idx = op mod List.length !live in
            let d = List.nth !live idx in
            Runtime.undeploy rt d;
            live := List.filter (fun x -> x != d) !live
          end
          else begin
            match Runtime.deploy rt ~accel:"npu-t6" with
            | Ok d -> live := d :: !live
            | Error _ -> ()
          end)
        ops;
      List.iter (Runtime.undeploy rt) !live;
      Cluster.total_free_vbs cluster = 55 && Runtime.deployments rt = [])

(* ---------------- Fragmentation index & defrag ---------------- *)

let test_fragmentation_shapes_agree () =
  let npu = Lazy.force npu_result in
  let registry = Mapdb.create () in
  Mapdb.register registry npu.Framework.mapping;
  let rt = Runtime.create ~policy:Runtime.greedy (Cluster.create ()) registry in
  let agree label =
    Alcotest.(check (float 1e-12))
      (label ^ ": fragmentation agrees")
      (Placement.fragmentation rt) (Runtime.fragmentation rt);
    Alcotest.(check int)
      (label ^ ": whole-free agrees")
      (Placement.whole_free_nodes rt)
      (Runtime.whole_free_nodes rt);
    Alcotest.(check bool) (label ^ ": index consistent") true
      (Runtime.index_consistent rt)
  in
  agree "empty";
  Alcotest.(check (float 1e-12)) "empty cluster has no stranding" 0.0
    (Runtime.fragmentation rt);
  let deploy rt =
    match Runtime.deploy rt ~accel:"npu-t6" with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let ds = List.init 5 (fun _ -> deploy rt) in
  agree "loaded";
  List.iteri (fun i d -> if i mod 2 = 0 then Runtime.undeploy rt d) ds;
  agree "after churn";
  Runtime.mark_node_failed rt 0;
  agree "node failed";
  Runtime.restore_node rt 0;
  agree "restored"

(* One stranded 6-VB deployment per device: plenty of free blocks in
   aggregate, yet no whole device free.  A compaction pass must drain
   stragglers until at least one frees up. *)
let fragment_fixture () =
  let npu = Lazy.force npu_result in
  let registry = Mapdb.create () in
  Mapdb.register registry npu.Framework.mapping;
  let rt = Runtime.create ~policy:Runtime.greedy (Cluster.create ()) registry in
  let ds =
    List.init 7 (fun _ ->
        match Runtime.deploy rt ~accel:"npu-t6" with
        | Ok d -> d
        | Error e -> Alcotest.fail e)
  in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun d ->
      match Runtime.nodes_used d with
      | [ n ] when not (Hashtbl.mem seen n) -> Hashtbl.replace seen n ()
      | _ -> Runtime.undeploy rt d)
    ds;
  rt

let test_defrag_compacts () =
  let rt = fragment_fixture () in
  Alcotest.(check int) "no whole device free" 0 (Runtime.whole_free_nodes rt);
  Alcotest.(check (float 1e-12)) "every free block stranded" 1.0
    (Runtime.fragmentation rt);
  let cfg = Defrag.config ~frag_threshold:0.25 ~min_node_fill:0.5 ~max_moves:8 () in
  Alcotest.(check bool) "should run" true (Defrag.should_run cfg rt);
  let pass = Defrag.run_pass cfg rt in
  Alcotest.(check bool) "within budget" true (pass.Defrag.attempted <= 8);
  Alcotest.(check bool) "moved something" true (pass.Defrag.moved > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fragmentation fell (%.3f -> %.3f)" pass.Defrag.frag_before
       pass.Defrag.frag_after)
    true
    (pass.Defrag.frag_after < pass.Defrag.frag_before);
  Alcotest.(check bool) "a whole device freed" true
    (pass.Defrag.whole_free_after > pass.Defrag.whole_free_before);
  Alcotest.(check bool) "index consistent" true (Runtime.index_consistent rt)

let test_defrag_gates () =
  (* below the threshold a pass is a no-op *)
  let npu = Lazy.force npu_result in
  let registry = Mapdb.create () in
  Mapdb.register registry npu.Framework.mapping;
  let empty = Runtime.create ~policy:Runtime.greedy (Cluster.create ()) registry in
  let cfg = Defrag.config () in
  Alcotest.(check bool) "empty cluster below threshold" false
    (Defrag.should_run cfg empty);
  let pass = Defrag.run_pass cfg empty in
  Alcotest.(check int) "no-op attempts nothing" 0 pass.Defrag.attempted;
  (* the eligibility filter pins everything in place *)
  let rt = fragment_fixture () in
  let pass = Defrag.run_pass ~eligible:(fun _ -> false) cfg rt in
  Alcotest.(check int) "nothing eligible, nothing attempted" 0
    pass.Defrag.attempted;
  Alcotest.(check (float 1e-12)) "fragmentation untouched"
    pass.Defrag.frag_before pass.Defrag.frag_after;
  (* a budget of one move attempts exactly one migration *)
  let pass = Defrag.run_pass (Defrag.config ~max_moves:1 ()) rt in
  Alcotest.(check int) "budget of one" 1 pass.Defrag.attempted;
  Alcotest.check_raises "validation"
    (Invalid_argument "Defrag.config: frag_threshold outside [0,1]") (fun () ->
      ignore (Defrag.config ~frag_threshold:1.5 ()))


(* A simulated week of deploy/undeploy churn (20,160 half-minute
   steps) over a 12-node 9:3 XCVU37P:XCKU115 cluster, run bare and with
   the background defragmenter.  Small and mid-size NPUs arrive and
   depart around 18 live deployments; every 20 steps the defragmenter
   gets its chance and a whole-device probe (npu-t21, which needs a
   nearly empty XCVU37P) asks whether a large tenant would still be
   admitted.  The op-intent stream depends only on the seed, so both
   runs face the same demand.  The registry holds only the five
   instances the churn touches: deploy looks accelerators up by name,
   so the larger benchmark registry gives the same outcome. *)
let churn_registry =
  lazy (Framework.npu_registry ~tile_counts:[ 4; 6; 8; 10; 21 ] ())

type churn = {
  probes : int;
  admitted : int;
  frag_sum : float;
  frag_final : float;
  deploys : int;
  failures : int;
  moves : int;
  passes : int;
  hits : int;
  misses : int;
}

let run_churn ~defrag =
  let churn_accels = [| "npu-t4"; "npu-t6"; "npu-t8"; "npu-t10" |] in
  let kinds =
    List.init 12 (fun i -> if i land 3 = 3 then Device.XCKU115 else Device.XCVU37P)
  in
  let cache = Mlv_vital.Bitstream.Cache.create ~capacity:64 () in
  let rt =
    Runtime.create ~policy:Runtime.greedy ~cache (Cluster.create ~kinds ())
      (Lazy.force churn_registry)
  in
  let rng = Rng.create 11 in
  let live = ref [] and nlive = ref 0 in
  let probes = ref 0 and admitted = ref 0 and frag_sum = ref 0.0 in
  let deploys = ref 0 and failures = ref 0 in
  let moves = ref 0 and passes = ref 0 in
  let target = 18 in
  for step = 1 to 20_160 do
    let arrive =
      if !nlive < target / 2 then true
      else if !nlive > target * 3 / 2 then false
      else Rng.int rng 2 = 0
    in
    if arrive then begin
      let accel = churn_accels.(Rng.int rng (Array.length churn_accels)) in
      incr deploys;
      match Runtime.deploy rt ~accel with
      | Ok d ->
        live := d :: !live;
        incr nlive
      | Error _ -> incr failures
    end
    else if !live <> [] then begin
      let i = Rng.int rng !nlive in
      Runtime.undeploy rt (List.nth !live i);
      live := List.filteri (fun j _ -> j <> i) !live;
      decr nlive
    end;
    if step mod 20 = 0 then begin
      (match defrag with
      | Some cfg when Defrag.should_run cfg rt ->
        moves := !moves + (Defrag.run_pass cfg rt).Defrag.moved;
        incr passes
      | _ -> ());
      incr probes;
      frag_sum := !frag_sum +. Runtime.fragmentation rt;
      match Runtime.deploy rt ~accel:"npu-t21" with
      | Ok d ->
        incr admitted;
        Runtime.undeploy rt d
      | Error _ -> ()
    end
  done;
  {
    probes = !probes;
    admitted = !admitted;
    frag_sum = !frag_sum;
    frag_final = Runtime.fragmentation rt;
    deploys = !deploys;
    failures = !failures;
    moves = !moves;
    passes = !passes;
    hits = Mlv_vital.Bitstream.Cache.hits cache;
    misses = Mlv_vital.Bitstream.Cache.misses cache;
  }

let test_defrag_churn_week () =
  let dcfg = Defrag.config ~frag_threshold:0.15 () in
  let bare = run_churn ~defrag:None in
  let defragged = run_churn ~defrag:(Some dcfg) in
  let mean o = o.frag_sum /. float_of_int o.probes in
  Alcotest.(check bool)
    (Printf.sprintf "mean fragmentation falls (%.4f -> %.4f)" (mean bare)
       (mean defragged))
    true
    (mean defragged < mean bare);
  Alcotest.(check bool) "large-probe admission rises" true
    (defragged.admitted > bare.admitted);
  Alcotest.(check bool) "bitstream cache hits under churn" true
    (defragged.hits > 0);
  (* the EXPERIMENTS.md figures, exact: the churn is sim-clock only *)
  let fmt4 = Printf.sprintf "%.4f" in
  Alcotest.(check (pair string string)) "mean fragmentation bare/defragged"
    ("0.5729", "0.4095")
    (fmt4 (mean bare), fmt4 (mean defragged));
  Alcotest.(check (pair int int)) "bare admission" (844, 1008)
    (bare.admitted, bare.probes);
  Alcotest.(check (pair int int)) "defragged admission" (856, 1008)
    (defragged.admitted, defragged.probes);
  Alcotest.(check (pair int int)) "moves and passes" (857, 931)
    (defragged.moves, defragged.passes);
  Alcotest.(check (pair int int)) "bare cache hits/misses" (12_044, 60)
    (bare.hits, bare.misses);
  Alcotest.(check (pair int int)) "defragged cache hits/misses" (13_115, 59)
    (defragged.hits, defragged.misses);
  Alcotest.(check bool) "rerun reproduces the outcome" true
    (run_churn ~defrag:(Some dcfg) = defragged)

let test_custom_accel_end_to_end () =
  (* A non-NPU accelerator through the whole flow: parse, decompose,
     map with the estimation cost model, register, deploy. *)
  let src =
    {|
(* control_path *)
module seq2 (go);
  output go;
  wire n;
  mlv_const #(.VALUE(1)) c (.o(n));
  mlv_reg r (.d(n), .q(go));
endmodule

module worker (x, o);
  input [31:0] x;
  output [31:0] o;
  wire [31:0] sq;
  mlv_mul m (.a(x), .b(x), .o(sq));
  mlv_reg r (.d(sq), .q(o));
endmodule

module farm (x0, x1, x2, x3, o0, o1, o2, o3);
  input [31:0] x0;
  input [31:0] x1;
  input [31:0] x2;
  input [31:0] x3;
  output [31:0] o0;
  output [31:0] o1;
  output [31:0] o2;
  output [31:0] o3;
  wire go;
  seq2 s (.go(go));
  worker w0 (.x(x0), .o(o0));
  worker w1 (.x(x1), .o(o1));
  worker w2 (.x(x2), .o(o2));
  worker w3 (.x(x3), .o(o3));
endmodule
|}
  in
  let design = parse_ok src in
  match Decompose.run design ~top:"farm" with
  | Error e -> Alcotest.failf "decompose: %s" e
  | Ok r ->
    let mapping =
      Mapping.compile ~iterations:1 ~name:"farm" ~control:r.Decompose.control
        ~data:r.Decompose.data ()
    in
    let registry = Mapdb.create () in
    Mapdb.register registry mapping;
    let cluster = Cluster.create () in
    let rt = Runtime.create ~policy:Runtime.greedy cluster registry in
    (match Runtime.deploy rt ~accel:"farm" with
    | Ok d ->
      Alcotest.(check bool) "placed" true (Runtime.nodes_used d <> []);
      Runtime.undeploy rt d
    | Error e -> Alcotest.failf "deploy: %s" e);
    (* and the 2-FPGA split also maps *)
    let level1 = List.nth mapping.Mapping.levels 1 in
    Alcotest.(check int) "two pieces" 2 (List.length level1);
    List.iter
      (fun (p : Mapping.compiled_piece) ->
        Alcotest.(check bool) "piece feasible somewhere" true (p.Mapping.bitstreams <> []))
      level1

let () =
  Alcotest.run "core"
    [
      ( "soft_block",
        [
          Alcotest.test_case "constructors" `Quick test_sb_constructors;
          Alcotest.test_case "validation" `Quick test_sb_validation;
          Alcotest.test_case "dp shape check" `Quick test_sb_validate_dp_shape;
          Alcotest.test_case "equal shape" `Quick test_sb_equal_shape;
          Alcotest.test_case "pretty printer" `Quick test_sb_pp;
          Alcotest.test_case "graphviz export" `Quick test_to_dot;
        ] );
      ( "pattern",
        [
          Alcotest.test_case "replicate" `Quick test_pattern_replicate;
          Alcotest.test_case "reduction" `Quick test_pattern_reduction;
          Alcotest.test_case "map pipeline" `Quick test_pattern_map_pipeline;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "small accelerator" `Quick test_decompose_small_accel;
          Alcotest.test_case "control split" `Quick test_decompose_control_split;
          Alcotest.test_case "no control error" `Quick test_decompose_no_control_error;
          Alcotest.test_case "control by name" `Quick test_decompose_control_by_name;
          Alcotest.test_case "unknown top" `Quick test_decompose_unknown_top;
          Alcotest.test_case "eqcheck different names" `Quick test_decompose_eqcheck_different_names;
          Alcotest.test_case "intra-block lanes" `Quick test_decompose_intra_block_lanes;
          Alcotest.test_case "intra disabled" `Quick test_decompose_intra_disabled;
          Alcotest.test_case "intra counts checks run" `Quick
            test_decompose_intra_counts_checks_run;
          Alcotest.test_case "random designs pinned" `Quick
            test_decompose_random_designs_pinned;
          Alcotest.test_case "NPU Fig.9 shape" `Quick test_decompose_npu_shape;
          Alcotest.test_case "top-down small accel" `Quick test_top_down_small_accel;
          Alcotest.test_case "top-down matches bottom-up" `Quick test_top_down_matches_bottom_up;
          Alcotest.test_case "top-down no control" `Quick test_top_down_no_control_error;
          Alcotest.test_case "NPU text round-trip" `Quick test_npu_text_roundtrip;
          Alcotest.test_case "simplify option" `Quick test_decompose_with_simplify;
          QCheck_alcotest.to_alcotest prop_decompose_lane_accel;
          QCheck_alcotest.to_alcotest prop_session_matches_fresh;
        ] );
      ( "partition",
        [
          Alcotest.test_case "dp even split" `Quick test_partition_dp_even_split;
          Alcotest.test_case "pipeline min cut" `Quick test_partition_pipeline_min_cut;
          Alcotest.test_case "leaf atomic" `Quick test_partition_leaf_atomic;
          Alcotest.test_case "levels" `Quick test_partition_levels;
          Alcotest.test_case "exhausts" `Quick test_partition_exhausts;
          Alcotest.test_case "bisect keeps pipelines whole" `Quick
            test_partition_bisect_keeps_pipelines;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "npu levels" `Quick test_mapping_npu_levels;
          Alcotest.test_case "infeasible large" `Quick test_mapping_infeasible_large;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "registry pinned" `Quick test_registry_pinned;
          Alcotest.test_case "cost cache per model" `Quick test_cost_cache_per_model;
          Alcotest.test_case "custom accel end to end" `Quick test_custom_accel_end_to_end;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "greedy deploys" `Quick test_runtime_greedy_deploys;
          Alcotest.test_case "spatial sharing" `Quick test_runtime_sharing;
          Alcotest.test_case "multi-FPGA" `Quick test_runtime_multi_fpga;
          Alcotest.test_case "restricted same type" `Quick test_runtime_restricted_same_type;
          Alcotest.test_case "unknown accel" `Quick test_runtime_unknown_accel;
          Alcotest.test_case "exhaustion and recovery" `Quick test_runtime_exhaustion_and_recovery;
          Alcotest.test_case "stats" `Quick test_runtime_stats;
          Alcotest.test_case "hypervisor protocol" `Quick test_hypervisor_protocol;
          Alcotest.test_case "rebalance defragments" `Quick test_runtime_rebalance_defragments;
          Alcotest.test_case "rebalance empty" `Quick test_runtime_rebalance_empty;
          Alcotest.test_case "rebalance rollback" `Quick test_runtime_rebalance_rollback;
          Alcotest.test_case "failover frees exactly" `Quick
            test_runtime_failover_frees_exactly;
          Alcotest.test_case "hypervisor metrics commands" `Quick
            test_hypervisor_metrics_commands;
          Alcotest.test_case "hypervisor timeline and top" `Quick
            test_hypervisor_timeline_and_top;
          Alcotest.test_case "node failure failover" `Quick test_runtime_node_failure;
          Alcotest.test_case "failover loses when full" `Quick test_runtime_failover_loses_when_full;
          Alcotest.test_case "hypervisor failover" `Quick test_hypervisor_failover_commands;
          QCheck_alcotest.to_alcotest prop_runtime_conservation;
        ] );
      ( "defrag",
        [
          Alcotest.test_case "fragmentation shapes agree" `Quick
            test_fragmentation_shapes_agree;
          Alcotest.test_case "pass compacts" `Quick test_defrag_compacts;
          Alcotest.test_case "gates and budget" `Quick test_defrag_gates;
          Alcotest.test_case "churn week" `Quick test_defrag_churn_week;
        ] );
      ( "scale_out",
        [
          Alcotest.test_case "generate valid" `Quick test_scale_out_generate_valid;
          Alcotest.test_case "validation" `Quick test_scale_out_validation;
          Alcotest.test_case "LSTM matches golden" `Quick test_scale_out_lstm_golden;
          Alcotest.test_case "GRU matches golden" `Quick test_scale_out_gru_golden;
          Alcotest.test_case "reordered matches golden" `Quick test_scale_out_reordered_golden;
          Alcotest.test_case "four parts" `Quick test_scale_out_four_parts;
          Alcotest.test_case "reorder sinks reads" `Quick test_reorder_sinks_reads;
          Alcotest.test_case "Fig.11 LSTM flat" `Quick test_two_fpga_latency_shapes;
          Alcotest.test_case "Fig.11 GRU crossover" `Quick test_two_fpga_gru_crossover;
          Alcotest.test_case "multi-part latency" `Quick test_multi_fpga_latency_parts;
          Alcotest.test_case "MLP scale-out golden" `Quick test_mlp_scale_out_golden;
          Alcotest.test_case "MLP scale-out validation" `Quick test_mlp_scale_out_validation;
          Alcotest.test_case "MLP reorder overlaps" `Quick test_mlp_reorder_overlaps;
          Alcotest.test_case "hetero partner slowdown" `Quick test_hetero_partner_slowdown;
          QCheck_alcotest.to_alcotest prop_reorder_semantics;
        ] );
    ]
