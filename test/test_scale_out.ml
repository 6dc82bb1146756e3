(* The scale-out service model: [Scale_out.reorder] against the
   reference reorderer in [Reorder_oracle], and
   [Scale_out.multi_fpga_latency_us] against pinned values. *)

open Mlv_isa
module Scale_out = Mlv_core.Scale_out
module Deepbench = Mlv_workload.Deepbench
module Device = Mlv_fpga.Device
module Config = Mlv_accel.Config
module Sysim = Mlv_sysim.Sysim

(* Byte equality of the marshalled programs: same instructions, same
   register counts, same sharing. *)
let bytes p = Marshal.to_string (p : Program.t) []

let check_same what ~sync_base p =
  let got = Scale_out.reorder ~sync_base p in
  let want = Reorder_oracle.reorder ~sync_base p in
  Alcotest.(check int) (what ^ ": length") (Program.length want) (Program.length got);
  Alcotest.(check bool) (what ^ ": byte-equal to the oracle") true (bytes got = bytes want)

(* Above this size the oracle's Hashtbl dedup takes seconds; those
   programs are pinned by digest instead. *)
let oracle_limit = 10_000

let divisible_parts hidden = List.filter (fun p -> hidden mod p = 0) [ 2; 3; 4 ]

let test_deepbench_matches_oracle () =
  (* [extended_points] starts with the seven Table 4 points. *)
  List.iter
    (fun (pt : Deepbench.point) ->
      List.iter
        (fun parts ->
          let p, lay =
            Scale_out.generate pt.Deepbench.kind ~hidden:pt.Deepbench.hidden
              ~input:pt.Deepbench.hidden ~timesteps:pt.Deepbench.timesteps ~parts ~part:0
          in
          if Program.length p <= oracle_limit then
            check_same
              (Printf.sprintf "%s parts=%d" (Deepbench.name pt) parts)
              ~sync_base:lay.Scale_out.sync_base p)
        (divisible_parts pt.Deepbench.hidden))
    Deepbench.extended_points

(* GRU h=1024 t=1500 (34,509 instructions) is the largest program the
   service model reorders.  Digests of the marshalled reordered
   program, recorded with the Hashtbl reorderer now in
   [Reorder_oracle]. *)
let test_gru_1500_digests () =
  List.iter
    (fun (parts, digest) ->
      let p, lay =
        Scale_out.generate Codegen.Gru ~hidden:1024 ~input:1024 ~timesteps:1500 ~parts
          ~part:0
      in
      Alcotest.(check bool) "beyond the oracle limit" true (Program.length p > oracle_limit);
      let r = Scale_out.reorder ~sync_base:lay.Scale_out.sync_base p in
      Alcotest.(check string)
        (Printf.sprintf "parts=%d digest" parts)
        digest
        (Digest.to_hex (Digest.string (bytes r))))
    [ (2, "4ac7550df10072fcfe7bce053549f9c4"); (4, "904c996149329988e83cf1649b3a59a0") ]

let test_mlp_matches_oracle () =
  List.iter
    (fun (dims, batch, parts) ->
      let spec = Mlp.make_spec dims in
      let p, lay = Scale_out.generate_mlp spec ~batch ~parts ~part:0 in
      check_same
        (Printf.sprintf "mlp %s batch=%d parts=%d"
           (String.concat "x" (List.map string_of_int dims))
           batch parts)
        ~sync_base:lay.Scale_out.msync_base p)
    [
      ([ 12; 16; 8 ], 1, 2);
      ([ 12; 16; 8 ], 5, 2);
      ([ 12; 16; 8 ], 4, 4);
      ([ 64; 48; 48; 24 ], 7, 3);
      ([ 256; 512; 512; 128 ], 16, 4);
    ]

(* Random straight-line programs over a small register file and a
   small address space, so register and memory hazards are dense and
   some accesses fall above the sync base. *)
let gen_program =
  let open QCheck.Gen in
  let vreg = int_range 0 5 and mreg = int_range 0 2 in
  let addr = int_range 0 47 and len = int_range 1 9 in
  let instr =
    frequency
      [
        (3, map3 (fun dst addr len -> Instr.V_rd { dst; addr; len }) vreg addr len);
        (3, map3 (fun src addr len -> Instr.V_wr { src; addr; len }) vreg addr len);
        (1, map2 (fun dst len -> Instr.V_fill { dst; len; value = 0.5 }) vreg len);
        ( 1,
          map3
            (fun dst addr (rows, cols) -> Instr.M_rd { dst; addr; rows; cols })
            mreg addr (pair (int_range 1 3) (int_range 1 3)) );
        (2, map3 (fun dst mat src -> Instr.Mvm { dst; mat; src }) vreg mreg vreg);
        (2, map3 (fun dst a b -> Instr.Vv_add { dst; a; b }) vreg vreg vreg);
        (1, map3 (fun dst a b -> Instr.Vv_mul { dst; a; b }) vreg vreg vreg);
        (1, map2 (fun dst src -> Instr.Act { dst; src; f = Instr.Tanh }) vreg vreg);
        (1, return Instr.Nop);
      ]
  in
  pair (int_range 0 48) (list_size (int_range 0 80) instr)

let prop_random_matches_oracle =
  QCheck.Test.make ~name:"reorder equals the oracle on random programs" ~count:300
    (QCheck.make gen_program)
    (fun (sync_base, instrs) ->
      let p = Program.make ~vregs:6 ~mregs:3 instrs in
      bytes (Scale_out.reorder ~sync_base p) = bytes (Reorder_oracle.reorder ~sync_base p))

(* [multi_fpga_latency_us] at the scale-out keys the Fig. 12 open loop
   reaches, sized by [Sysim.scale_out_shape] on XCVU37P parts,
   recorded as hex floats before the model was split into a plan and a
   timing step. *)
let goldens =
  [
    (Codegen.Gru, 1024, 1500, 38, 3, 0x1p+0, 0x1.3d19ba6532eaep+12);
    (Codegen.Gru, 1024, 1500, 38, 3, 0x1.5555555555555p+0, 0x1.3d25bb6ed690fp+12);
    (Codegen.Gru, 1024, 1500, 38, 4, 0x1p+0, 0x1.357e71e567c9ep+12);
    (Codegen.Gru, 1024, 1500, 38, 4, 0x1.5555555555555p+0, 0x1.5cf1d950c8a69p+12);
    (Codegen.Gru, 1024, 1500, 6, 2, 0x1p+0, 0x1.a259ba6533514p+12);
    (Codegen.Gru, 1024, 1500, 6, 2, 0x1.5555555555555p+0, 0x1.a266bdcf0387ep+12);
    (Codegen.Gru, 1536, 375, 13, 2, 0x1p+0, 0x1.baf316b11cdd9p+10);
    (Codegen.Gru, 1536, 375, 13, 2, 0x1.5555555555555p+0, 0x1.bb29ac471bb8p+10);
    (Codegen.Gru, 1536, 375, 13, 3, 0x1p+0, 0x1.b35209c69a9cfp+10);
    (Codegen.Gru, 1536, 375, 13, 3, 0x1.5555555555555p+0, 0x1.b38b905ecfb2ap+10);
    (Codegen.Gru, 1536, 375, 13, 4, 0x1p+0, 0x1.afa3b59ddcb7ep+10);
    (Codegen.Gru, 1536, 375, 13, 4, 0x1.5555555555555p+0, 0x1.b957435d950f9p+10);
    (Codegen.Gru, 2048, 100, 21, 2, 0x1p+0, 0x1.1c2f43cd6d96cp+10);
    (Codegen.Gru, 2048, 100, 21, 2, 0x1.5555555555555p+0, 0x1.1caba36033902p+10);
    (Codegen.Gru, 2048, 100, 21, 3, 0x1p+0, 0x1.1c2f43cd6d96cp+10);
    (Codegen.Gru, 2048, 100, 21, 3, 0x1.5555555555555p+0, 0x1.1caba36033902p+10);
    (Codegen.Gru, 2048, 100, 21, 4, 0x1p+0, 0x1.a08fa9462691fp+9);
    (Codegen.Gru, 2048, 100, 21, 4, 0x1.5555555555555p+0, 0x1.a14720bd9e096p+9);
    (Codegen.Gru, 2560, 100, 32, 2, 0x1p+0, 0x1.fc4dc3a6faeacp+8);
    (Codegen.Gru, 2560, 100, 32, 2, 0x1.5555555555555p+0, 0x1.fd3b5dcc63e94p+8);
    (Codegen.Gru, 2560, 100, 32, 3, 0x1p+0, 0x1.fc4dc3a6faeacp+8);
    (Codegen.Gru, 2560, 100, 32, 3, 0x1.5555555555555p+0, 0x1.fd3b5dcc63e94p+8);
    (Codegen.Gru, 2560, 100, 32, 4, 0x1p+0, 0x1.e8c77318fc49cp+8);
    (Codegen.Gru, 2560, 100, 32, 4, 0x1.5555555555555p+0, 0x1.fb49ad42c3ca5p+8);
    (Codegen.Gru, 768, 100, 38, 3, 0x1p+0, 0x1.44cbdcf0306f9p+8);
    (Codegen.Gru, 768, 100, 38, 3, 0x1.5555555555555p+0, 0x1.458c5ac471a4cp+8);
    (Codegen.Gru, 768, 100, 38, 4, 0x1p+0, 0x1.4587d955713ddp+8);
    (Codegen.Gru, 768, 100, 38, 4, 0x1.5555555555555p+0, 0x1.6e2c083126d68p+8);
    (Codegen.Gru, 768, 100, 6, 2, 0x1p+0, 0x1.7ed34c1a8ac24p+8);
    (Codegen.Gru, 768, 100, 6, 2, 0x1.5555555555555p+0, 0x1.7f9595feda62bp+8);
    (Codegen.Lstm, 256, 150, 38, 3, 0x1p+0, 0x1.14f8ea2e95bb4p+9);
    (Codegen.Lstm, 256, 150, 38, 3, 0x1.5555555555555p+0, 0x1.156cfe7633802p+9);
    (Codegen.Lstm, 256, 150, 38, 4, 0x1p+0, 0x1.149b142dfbf1p+9);
    (Codegen.Lstm, 256, 150, 38, 4, 0x1.5555555555555p+0, 0x1.158c66dae87acp+9);
    (Codegen.Lstm, 256, 150, 6, 2, 0x1p+0, 0x1.1af8ea2e95b8fp+9);
    (Codegen.Lstm, 256, 150, 6, 2, 0x1.5555555555555p+0, 0x1.1b6cfe76337dep+9);
  ]

let test_service_model_goldens () =
  let device = Device.get Device.XCVU37P in
  let xcku = Device.get Device.XCKU115 in
  Alcotest.(check (float 0.0)) "XCVU37P/XCKU115 slowdown is 400/300" (400.0 /. 300.0)
    (device.Device.base_freq_mhz /. xcku.Device.base_freq_mhz);
  List.iter
    (fun (kind, hidden, timesteps, tiles, nodes, partner_slowdown, want) ->
      let parts, per_part = Sysim.scale_out_shape ~hidden ~nodes ~tiles in
      let config = Config.make ~tiles:per_part ~mem_kind:Config.Bram_uram () in
      let got =
        Scale_out.multi_fpga_latency_us ~partner_slowdown ~parts ~config ~device
          ~added_latency_us:0.0 ~reordered:true kind ~hidden ~input:hidden ~timesteps
      in
      Alcotest.(check string)
        (Printf.sprintf "%s h=%d t=%d tiles=%d nodes=%d slowdown=%h"
           (Codegen.kind_name kind) hidden timesteps tiles nodes partner_slowdown)
        (Printf.sprintf "%h" want) (Printf.sprintf "%h" got))
    goldens

let () =
  Alcotest.run "scale_out"
    [
      ( "reorder",
        [
          Alcotest.test_case "deepbench points match the oracle" `Quick
            test_deepbench_matches_oracle;
          Alcotest.test_case "GRU h=1024 t=1500 digests" `Quick test_gru_1500_digests;
          Alcotest.test_case "mlp programs match the oracle" `Quick test_mlp_matches_oracle;
          QCheck_alcotest.to_alcotest prop_random_matches_oracle;
        ] );
      ( "service model",
        [ Alcotest.test_case "golden latencies" `Quick test_service_model_goldens ] );
    ]
