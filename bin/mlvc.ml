(* mlvc — the framework's offline compilation driver.

   Subcommands:
     decompose  parse an RTL file, run the decomposing tool, print the
                soft-block tree and statistics
     partition  decompose then run the iterative partitioner
     npu        generate + compile a BrainWave-like NPU instance and
                print its mapping database entries
     devices    print the device catalog *)

open Cmdliner
module Design = Mlv_rtl.Design
module Parser = Mlv_rtl.Parser
module Decompose = Mlv_core.Decompose
module Partition = Mlv_core.Partition
module Mapping = Mlv_core.Mapping
module Framework = Mlv_core.Framework
module SB = Mlv_core.Soft_block
module Device = Mlv_fpga.Device
module Resource = Mlv_fpga.Resource
module Table = Mlv_util.Table

let read_design path =
  match Parser.parse_file path with
  | Ok d -> Ok d
  | Error e -> Error (`Msg e)

let run_decompose path top controls quiet flow dot_out =
  match read_design path with
  | Error (`Msg e) ->
    prerr_endline e;
    1
  | Ok design -> (
    let config = { Decompose.default_config with Decompose.control_modules = controls } in
    let result =
      match flow with
      | "top-down" -> Mlv_core.Top_down.run ~config design ~top
      | _ -> Decompose.run ~config design ~top
    in
    match result with
    | Error e ->
      prerr_endline ("decompose: " ^ e);
      1
    | Ok r ->
      if not quiet then begin
        print_endline "control soft block:";
        Format.printf "%a@." SB.pp r.Decompose.control;
        print_endline "data-path soft block tree:";
        Format.printf "%a@." SB.pp r.Decompose.data
      end;
      let s = r.Decompose.stats in
      Printf.printf
        "stats: %d leaf blocks, %d data-parallel groups, %d pipeline groups,\n\
         %d equivalence checks, %d fixpoint iterations\n"
        s.Decompose.leaf_blocks s.Decompose.dp_groups s.Decompose.pipe_groups
        s.Decompose.eq_checks s.Decompose.iterations;
      (match dot_out with
      | Some out ->
        let oc = open_out out in
        output_string oc (SB.to_dot ~name:"data_path" r.Decompose.data);
        close_out oc;
        Printf.printf "wrote %s\n" out
      | None -> ());
      0)

let run_partition path top controls iterations =
  match read_design path with
  | Error (`Msg e) ->
    prerr_endline e;
    1
  | Ok design -> (
    let config = { Decompose.default_config with Decompose.control_modules = controls } in
    match Decompose.run ~config design ~top with
    | Error e ->
      prerr_endline ("decompose: " ^ e);
      1
    | Ok r ->
      let levels = Partition.run r.Decompose.data ~iterations in
      List.iteri
        (fun level pieces ->
          Printf.printf "level %d: %d piece(s)\n" level (List.length pieces);
          List.iter
            (fun (p : Partition.piece) ->
              Printf.printf "  %s: %d leaves, cut bandwidth %d bits\n"
                p.Partition.piece_id
                (List.length (SB.leaves p.Partition.tree))
                p.Partition.cut_bits)
            pieces)
        levels;
      0)

let run_npu tiles iterations show_tree =
  match Framework.build_npu ~iterations ~tiles () with
  | Error e ->
    prerr_endline e;
    1
  | Ok npu ->
    Printf.printf "accelerator: %s\n" (Framework.accel_name ~tiles);
    if show_tree then
      Format.printf "data-path tree:@.%a@." SB.pp
        npu.Framework.decomposed.Decompose.data;
    let t =
      Table.create [ "Piece"; "Tiles"; "Control"; "Device"; "VBs"; "Crossings"; "MHz" ]
    in
    List.iter
      (fun pieces ->
        List.iter
          (fun (p : Mapping.compiled_piece) ->
            List.iter
              (fun (kind, bs) ->
                Table.add_row t
                  [
                    p.Mapping.piece.Partition.piece_id;
                    string_of_int p.Mapping.tiles;
                    (if p.Mapping.includes_control then "yes" else "no");
                    Device.kind_name kind;
                    string_of_int bs.Mlv_vital.Bitstream.vbs;
                    string_of_int bs.Mlv_vital.Bitstream.crossings;
                    Printf.sprintf "%.0f" bs.Mlv_vital.Bitstream.freq_mhz;
                  ])
              p.Mapping.bitstreams)
          pieces)
      npu.Framework.mapping.Mapping.levels;
    Table.print t;
    0

let run_simplify path =
  match read_design path with
  | Error (`Msg e) ->
    prerr_endline e;
    1
  | Ok design ->
    let simplified =
      Design.modules design
      |> List.map (fun (m : Mlv_rtl.Ast.module_def) ->
             if Mlv_rtl.Ast.is_basic m then begin
               let s = Mlv_rtl.Transform.simplify m in
               let removed = Mlv_rtl.Transform.removed ~before:m ~after:s in
               if removed > 0 then
                 Printf.eprintf "%s: removed %d instances\n" m.Mlv_rtl.Ast.mod_name removed;
               s
             end
             else m)
    in
    print_string (Mlv_rtl.Printer.design_to_string (Design.of_modules simplified));
    0

let run_emit tiles =
  let cfg = Mlv_accel.Config.make ~tiles () in
  let design = Mlv_accel.Rtl_gen.generate cfg in
  print_string (Mlv_rtl.Printer.design_to_string design);
  0

let run_info path =
  match read_design path with
  | Error (`Msg e) ->
    prerr_endline e;
    1
  | Ok design -> (
    match Design.validate design with
    | _ :: _ as errs ->
      List.iter prerr_endline errs;
      1
    | [] ->
      Format.printf "%a" Mlv_rtl.Stats.pp (Mlv_rtl.Stats.of_design design);
      0)

let run_devices () =
  let t =
    Table.create
      [ "Device"; "LUTs"; "DFFs"; "BRAM"; "URAM"; "DSPs"; "MHz"; "VBs"; "Max tiles" ]
  in
  List.iter
    (fun kind ->
      let d = Device.get kind in
      let c = d.Device.capacity in
      Table.add_row t
        [
          d.Device.name;
          Printf.sprintf "%dk" (c.Resource.luts / 1000);
          Printf.sprintf "%dk" (c.Resource.dffs / 1000);
          Resource.mb c.Resource.bram_kb;
          (if d.Device.has_uram then Resource.mb c.Resource.uram_kb else "-");
          string_of_int c.Resource.dsps;
          Printf.sprintf "%.0f" d.Device.base_freq_mhz;
          string_of_int d.Device.virtual_block_count;
          string_of_int (Mlv_accel.Resource_model.max_tiles d);
        ])
    Device.kinds;
  Table.print t;
  0

(* -------- cmdliner plumbing -------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"RTL source file")

let top_arg =
  Arg.(required & opt (some string) None & info [ "top" ] ~docv:"MODULE" ~doc:"Top module")

let controls_arg =
  Arg.(
    value & opt_all string []
    & info [ "control" ] ~docv:"MODULE"
        ~doc:"Treat $(docv) as part of the control path (repeatable)")

let quiet_arg = Arg.(value & flag & info [ "quiet" ] ~doc:"Print only statistics")

let iterations_arg =
  Arg.(value & opt int 2 & info [ "iterations" ] ~docv:"N" ~doc:"Partitioning depth")

let tiles_arg =
  Arg.(value & opt int 21 & info [ "tiles" ] ~docv:"N" ~doc:"MVM tile count")

let tree_arg = Arg.(value & flag & info [ "tree" ] ~doc:"Print the soft-block tree")

let flow_arg =
  Arg.(
    value
    & opt (enum [ ("bottom-up", "bottom-up"); ("top-down", "top-down") ]) "bottom-up"
    & info [ "flow" ] ~docv:"FLOW" ~doc:"Decomposing flow: bottom-up (default) or top-down")

let dot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write the data-path tree as Graphviz to $(docv)")

let decompose_cmd =
  Cmd.v
    (Cmd.info "decompose" ~doc:"Decompose an accelerator onto the system abstraction")
    Term.(const run_decompose $ file_arg $ top_arg $ controls_arg $ quiet_arg $ flow_arg $ dot_arg)

let partition_cmd =
  Cmd.v
    (Cmd.info "partition" ~doc:"Decompose then partition into deployment units")
    Term.(const run_partition $ file_arg $ top_arg $ controls_arg $ iterations_arg)

let npu_cmd =
  Cmd.v
    (Cmd.info "npu" ~doc:"Compile a BrainWave-like NPU instance end to end")
    Term.(const run_npu $ tiles_arg $ iterations_arg $ tree_arg)

let info_cmd =
  Cmd.v
    (Cmd.info "info" ~doc:"Print design statistics")
    Term.(const run_info $ file_arg)

let simplify_cmd =
  Cmd.v
    (Cmd.info "simplify" ~doc:"Constant-fold and dead-code-eliminate basic modules")
    Term.(const run_simplify $ file_arg)

let emit_cmd =
  Cmd.v
    (Cmd.info "emit" ~doc:"Emit the generated NPU RTL as text")
    Term.(const run_emit $ tiles_arg)

let devices_cmd =
  Cmd.v (Cmd.info "devices" ~doc:"Print the device catalog") Term.(const run_devices $ const ())

let () =
  let info =
    Cmd.info "mlvc" ~version:"1.0.0"
      ~doc:"Multi-layer FPGA virtualization framework compiler"
  in
  exit (Cmd.eval' (Cmd.group info
       [ decompose_cmd; partition_cmd; npu_cmd; info_cmd; simplify_cmd; emit_cmd; devices_cmd ]))
