(* Quickstart: the full life of one accelerator through the
   framework, in five steps.

     dune exec examples/quickstart.exe

   1. Generate the BrainWave-like NPU's RTL (8 tiles).
   2. Decompose it onto the system abstraction (soft-block tree).
   3. Partition + map it onto ViTAL virtual blocks for both device
      types.
   4. Deploy it on the heterogeneous cluster through the runtime.
   5. Run a GRU inference: numerically with the functional executor,
      and through the timing model for the latency. *)

module Framework = Mlv_core.Framework
module Decompose = Mlv_core.Decompose
module SB = Mlv_core.Soft_block
module Mapping = Mlv_core.Mapping
module Mapdb = Mlv_core.Mapdb
module Runtime = Mlv_core.Runtime
module Cluster = Mlv_cluster.Cluster
module Codegen = Mlv_isa.Codegen
module Exec = Mlv_isa.Exec
module Perf = Mlv_accel.Perf
module Device = Mlv_fpga.Device
module Rng = Mlv_util.Rng

let () =
  print_endline "== 1. Generate the accelerator RTL ==";
  let tiles = 8 in
  let npu =
    match Framework.build_npu ~tiles () with Ok n -> n | Error e -> failwith e
  in
  Printf.printf "generated %d RTL modules, %d primitive instances flattened\n\n"
    (List.length (Mlv_rtl.Design.modules npu.Framework.design))
    (Mlv_rtl.Design.flat_instance_count npu.Framework.design "bw_npu");

  print_endline "== 2. The decomposed soft-block tree (truncated) ==";
  let stats = npu.Framework.decomposed.Decompose.stats in
  Printf.printf
    "%d leaf blocks -> %d data-parallel groups, %d pipelines (%d iterations)\n"
    stats.Decompose.leaf_blocks stats.Decompose.dp_groups stats.Decompose.pipe_groups
    stats.Decompose.iterations;
  (match npu.Framework.decomposed.Decompose.data with
  | SB.Node { SB.children; _ } ->
    Printf.printf "data-path root: data parallelism over %d engine pipelines\n\n"
      (List.length children)
  | SB.Leaf _ -> print_endline "data-path root: single leaf\n");

  print_endline "== 3. Mapping onto virtual blocks ==";
  List.iteri
    (fun level pieces ->
      List.iter
        (fun (p : Mapping.compiled_piece) ->
          List.iter
            (fun (kind, bs) ->
              Printf.printf "  level %d %s on %s: %d virtual blocks\n" level
                p.Mapping.piece.Mlv_core.Partition.piece_id (Device.kind_name kind)
                bs.Mlv_vital.Bitstream.vbs)
            p.Mapping.bitstreams)
        pieces)
    npu.Framework.mapping.Mapping.levels;
  print_newline ();

  print_endline "== 4. Deploy on the heterogeneous cluster ==";
  let registry = Mapdb.create () in
  Mapdb.register registry npu.Framework.mapping;
  let cluster = Cluster.create () in
  let runtime = Runtime.create ~policy:Runtime.greedy cluster registry in
  let deployment =
    match Runtime.deploy runtime ~accel:(Framework.accel_name ~tiles) with
    | Ok d -> d
    | Error e -> failwith e
  in
  Printf.printf "deployed on node(s) %s, %.0f us reconfiguration\n\n"
    (String.concat ", " (List.map string_of_int (Runtime.nodes_used deployment)))
    deployment.Runtime.reconfig_us;

  print_endline "== 5. Run a GRU inference ==";
  let hidden = 64 and timesteps = 3 in
  let program, layout = Codegen.generate Codegen.Gru ~hidden ~input:hidden ~timesteps in
  let rng = Rng.create 2026 in
  let dram = Codegen.init_dram ~rng layout in
  let golden = Codegen.golden layout (Array.copy dram) in
  let ex = Exec.create ~dram program in
  (match Exec.run ex ~max_steps:1_000_000 with
  | Exec.Done -> ()
  | _ -> failwith "executor did not finish");
  let h = Exec.vreg ex 1 in
  let err = ref 0.0 in
  Array.iteri
    (fun i v -> err := Float.max !err (Float.abs (v -. golden.(timesteps - 1).(i))))
    h;
  Printf.printf "numeric: max |h - golden| = %.4f (BFP + fp16 quantization noise)\n" !err;
  let node_kind =
    (Cluster.node cluster (List.hd (Runtime.nodes_used deployment))).Mlv_cluster.Node.kind
  in
  let device = Device.get node_kind in
  let vbs =
    List.fold_left
      (fun acc p -> acc + p.Runtime.bitstream.Mlv_vital.Bitstream.vbs)
      0 deployment.Runtime.placements
  in
  let b =
    Perf.program_latency npu.Framework.config device
      ~deploy:(Perf.vital_deploy ~virtual_blocks:vbs ~pattern_aware:true)
      program
  in
  Printf.printf "timing: %.1f us on %s at %.0f MHz through %d virtual blocks\n"
    b.Perf.total_us (Device.kind_name node_kind) b.Perf.freq_mhz vbs;
  Runtime.undeploy runtime deployment;
  print_endline "\nDone."
