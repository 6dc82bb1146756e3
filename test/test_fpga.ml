(* Tests for the FPGA device model: resource vectors, catalog,
   floorplanning and estimation. *)

module Resource = Mlv_fpga.Resource
module Device = Mlv_fpga.Device
module Floorplan = Mlv_fpga.Floorplan
module Board = Mlv_fpga.Board
module Estimate = Mlv_fpga.Estimate
module Ast = Mlv_rtl.Ast
module Design = Mlv_rtl.Design
module Parser = Mlv_rtl.Parser

let test_resource_arith () =
  let a = Resource.make ~luts:10 ~dffs:20 ~dsps:2 () in
  let b = Resource.make ~luts:5 ~bram_kb:36 () in
  let s = Resource.add a b in
  Alcotest.(check int) "luts" 15 s.Resource.luts;
  Alcotest.(check int) "bram" 36 s.Resource.bram_kb;
  let d = Resource.sub s b in
  Alcotest.(check bool) "sub inverse" true (Resource.equal d a)

let test_resource_scale () =
  let a = Resource.make ~luts:10 ~dsps:3 () in
  Alcotest.(check int) "scale luts" 30 (Resource.scale 3 a).Resource.luts;
  Alcotest.(check int) "scale_f dsps" 5 (Resource.scale_f 1.5 a).Resource.dsps

let test_resource_fits () =
  let cap = Resource.make ~luts:100 ~dffs:100 ~dsps:10 () in
  Alcotest.(check bool) "fits" true
    (Resource.fits ~need:(Resource.make ~luts:50 ~dsps:10 ()) ~avail:cap);
  Alcotest.(check bool) "dsp overflow" false
    (Resource.fits ~need:(Resource.make ~dsps:11 ()) ~avail:cap);
  Alcotest.(check bool) "zero fits" true (Resource.fits ~need:Resource.zero ~avail:cap)

let test_resource_utilization () =
  let cap = Resource.make ~luts:100 ~dffs:200 ~dsps:10 () in
  let used = Resource.make ~luts:50 ~dffs:20 ~dsps:9 () in
  Alcotest.(check (float 1e-9)) "max ratio" 0.9 (Resource.utilization ~used ~cap);
  let used_uram = Resource.make ~uram_kb:1 () in
  Alcotest.(check bool) "impossible" true
    (Resource.utilization ~used:used_uram ~cap = infinity)

let test_device_catalog_consistency () =
  List.iter
    (fun kind ->
      let d = Device.get kind in
      Alcotest.(check bool) (d.Device.name ^ " vb fits") true
        (Resource.fits
           ~need:(Resource.scale d.Device.virtual_block_count d.Device.vb_region)
           ~avail:d.Device.capacity);
      Alcotest.(check bool) "positive freq" true (d.Device.base_freq_mhz > 0.0))
    Device.kinds

let test_device_kind_rank () =
  List.iteri
    (fun i kind ->
      Alcotest.(check int) (Device.kind_name kind ^ " rank") i (Device.kind_rank kind))
    Device.kinds

let test_device_table2_capacities () =
  (* Capacities must reproduce Table 2's utilization percentages. *)
  let vu37p = Device.get Device.XCVU37P in
  let pct used cap = float_of_int used /. float_of_int cap *. 100.0 in
  let luts_pct = pct 610_000 vu37p.Device.capacity.Resource.luts in
  Alcotest.(check bool) "610k LUTs ~ 46.8%" true (Float.abs (luts_pct -. 46.8) < 0.5);
  let dsp_pct = pct 7517 vu37p.Device.capacity.Resource.dsps in
  Alcotest.(check bool) "7517 DSPs ~ 83.3%" true (Float.abs (dsp_pct -. 83.3) < 0.5);
  let ku115 = Device.get Device.XCKU115 in
  let luts_pct = pct 367_000 ku115.Device.capacity.Resource.luts in
  Alcotest.(check bool) "367k LUTs ~ 55.3%" true (Float.abs (luts_pct -. 55.3) < 0.5);
  Alcotest.(check int) "no URAM" 0 ku115.Device.capacity.Resource.uram_kb

let test_device_of_name () =
  Alcotest.(check bool) "vu37p" true (Device.of_name "XCVU37P" = Some Device.XCVU37P);
  Alcotest.(check bool) "ku115 lowercase" true (Device.of_name "ku115" = Some Device.XCKU115);
  Alcotest.(check bool) "unknown" true (Device.of_name "z7020" = None)

let test_floorplan_monotone () =
  let d = Device.get Device.XCVU37P in
  let f u = Floorplan.achieved_freq_mhz d ~utilization:u ~floorplanned:false in
  Alcotest.(check bool) "decreasing" true (f 0.2 > f 0.5 && f 0.5 > f 0.9);
  Alcotest.(check (float 1e-6)) "empty = base" d.Device.base_freq_mhz (f 0.0)

let test_floorplan_recovers () =
  let d = Device.get Device.XCVU37P in
  let without = Floorplan.achieved_freq_mhz d ~utilization:0.85 ~floorplanned:false in
  let with_fp = Floorplan.achieved_freq_mhz d ~utilization:0.85 ~floorplanned:true in
  Alcotest.(check bool) "floorplan helps" true (with_fp > without);
  (* Floorplanned designs at Table-2 utilizations keep >95% of base. *)
  Alcotest.(check bool) "near base" true (with_fp > 0.95 *. d.Device.base_freq_mhz)

let test_floorplan_route_limit () =
  let d = Device.get Device.XCKU115 in
  Alcotest.(check bool) "routable" true (Floorplan.route_success d ~utilization:0.9);
  Alcotest.(check bool) "unroutable" false (Floorplan.route_success d ~utilization:0.99)

let test_board_transfer_times () =
  let b = Board.default in
  let t_small = Board.ring_transfer_time_us b ~bytes:64 ~hops:1 ~added_latency_us:0.0 in
  let t_big = Board.ring_transfer_time_us b ~bytes:65536 ~hops:1 ~added_latency_us:0.0 in
  Alcotest.(check bool) "bandwidth term" true (t_big > t_small);
  let t_delay = Board.ring_transfer_time_us b ~bytes:64 ~hops:1 ~added_latency_us:0.6 in
  Alcotest.(check (float 1e-9)) "added latency" 0.6 (t_delay -. t_small);
  let t_2hop = Board.ring_transfer_time_us b ~bytes:64 ~hops:2 ~added_latency_us:0.0 in
  Alcotest.(check bool) "hops add latency" true (t_2hop > t_small)

let test_board_dram_pcie () =
  let b = Board.default in
  Alcotest.(check bool) "dram faster than pcie" true
    (Board.dram_read_time_us b ~bytes:4096 < Board.pcie_transfer_time_us b ~bytes:4096)

let test_estimate_prims () =
  let r = Estimate.of_prim (Ast.P_reg 32) in
  Alcotest.(check int) "reg dffs" 32 r.Resource.dffs;
  let m = Estimate.of_prim (Ast.P_mul 16) in
  Alcotest.(check int) "mul dsp" 1 m.Resource.dsps;
  let m27 = Estimate.of_prim (Ast.P_mul 27) in
  Alcotest.(check int) "wide mul tiles" 4 m27.Resource.dsps;
  let ram = Estimate.of_prim (Ast.P_ram { words = 512; width = 72 }) in
  Alcotest.(check int) "one 36kb block" 36 ram.Resource.bram_kb;
  let tiny = Estimate.of_prim (Ast.P_ram { words = 16; width = 8 }) in
  Alcotest.(check int) "distributed" 0 tiny.Resource.bram_kb;
  Alcotest.(check bool) "uses luts" true (tiny.Resource.luts > 0)

let test_estimate_module () =
  let d =
    match
      Parser.parse_string
        {|
module m (a, b, o);
  input [7:0] a;
  input [7:0] b;
  output [7:0] o;
  wire [7:0] t;
  mlv_add g (.a(a), .b(b), .o(t));
  mlv_reg r (.d(t), .q(o));
endmodule
|}
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let r = Estimate.of_module d "m" in
  Alcotest.(check int) "adder luts" 8 r.Resource.luts;
  Alcotest.(check int) "reg dffs" 8 r.Resource.dffs

let () =
  Alcotest.run "fpga"
    [
      ( "resource",
        [
          Alcotest.test_case "arithmetic" `Quick test_resource_arith;
          Alcotest.test_case "scaling" `Quick test_resource_scale;
          Alcotest.test_case "fits" `Quick test_resource_fits;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
        ] );
      ( "device",
        [
          Alcotest.test_case "catalog consistency" `Quick test_device_catalog_consistency;
          Alcotest.test_case "table 2 capacities" `Quick test_device_table2_capacities;
          Alcotest.test_case "of_name" `Quick test_device_of_name;
          Alcotest.test_case "kind_rank indexes kinds" `Quick test_device_kind_rank;
        ] );
      ( "floorplan",
        [
          Alcotest.test_case "monotone" `Quick test_floorplan_monotone;
          Alcotest.test_case "floorplanning recovers" `Quick test_floorplan_recovers;
          Alcotest.test_case "route limit" `Quick test_floorplan_route_limit;
        ] );
      ( "board",
        [
          Alcotest.test_case "transfer times" `Quick test_board_transfer_times;
          Alcotest.test_case "dram vs pcie" `Quick test_board_dram_pcie;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "primitives" `Quick test_estimate_prims;
          Alcotest.test_case "module" `Quick test_estimate_module;
        ] );
    ]
