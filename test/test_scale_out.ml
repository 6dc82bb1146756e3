(* The scale-out service model: [Scale_out.reorder] against the
   reference reorderer in [Reorder_oracle] and against [Exec] on
   random programs, and [Scale_out.multi_fpga_latency_us] and
   [Scale_out.mlp_latency_us] against pinned values. *)

open Mlv_isa
module Scale_out = Mlv_core.Scale_out
module Deepbench = Mlv_workload.Deepbench
module Device = Mlv_fpga.Device
module Config = Mlv_accel.Config
module Sysim = Mlv_sysim.Sysim
module Reorder_oracle = Mlv_oracle.Reorder_oracle

(* Byte equality of the marshalled programs: same instructions, same
   register counts, same sharing. *)
let bytes p = Marshal.to_string (p : Program.t) []

(* Checks [Scale_out.reorder] against the oracle; the oracle's
   program. *)
let check_same what ~sync_base p =
  let got = Scale_out.reorder ~sync_base p in
  let want = Reorder_oracle.reorder ~sync_base p in
  Alcotest.(check int) (what ^ ": length") (Program.length want) (Program.length got);
  Alcotest.(check bool) (what ^ ": byte-equal to the oracle") true (bytes got = bytes want);
  want

(* Programs up to this size are checked against the oracle.  With
   mailbox hazards the oracle's pairwise scan takes well under a second
   on the largest service-model program (GRU h=1024 t=1500, 34,509
   instructions), so every DeepBench point is covered. *)
let oracle_limit = 40_000

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
          if Program.length p <= oracle_limit then begin
            let what = Printf.sprintf "%s parts=%d" (Deepbench.name pt) parts in
            let want = check_same what ~sync_base:lay.Scale_out.sync_base p in
            (* [plan] reorders its own program in place. *)
            let plan =
              Scale_out.plan ~reordered:true pt.Deepbench.kind ~hidden:pt.Deepbench.hidden
                ~input:pt.Deepbench.hidden ~timesteps:pt.Deepbench.timesteps ~parts
            in
            Alcotest.(check bool) (what ^ ": plan byte-equal to the oracle") true
              (bytes plan.Scale_out.program = bytes want)
          end)
        (divisible_parts pt.Deepbench.hidden))
    Deepbench.extended_points

(* GRU h=1024 t=1500 (34,509 instructions) is the largest program the
   service model reorders.  Digests of the marshalled reordered
   program, recorded with the Hashtbl reorderer now in
   [Reorder_oracle]; the DeepBench test above also checks both
   programs against the oracle. *)
let test_gru_1500_digests () =
  List.iter
    (fun (parts, digest) ->
      let p, lay =
        Scale_out.generate Codegen.Gru ~hidden:1024 ~input:1024 ~timesteps:1500 ~parts
          ~part:0
      in
      Alcotest.(check bool) "within the oracle limit" true (Program.length p <= oracle_limit);
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
      ignore
        (check_same
           (Printf.sprintf "mlp %s batch=%d parts=%d"
              (String.concat "x" (List.map string_of_int dims))
              batch parts)
           ~sync_base:lay.Scale_out.msync_base p))
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

(* Exec semantics, independent of how hazards are formulated: a
   program that runs to completion must, reordered, also complete with
   the same DRAM, registers and mailboxes.  Every vector has length
   [vlen] and every matrix is [vlen] x [vlen], so the only way a
   program fails to run is a receive before any send to its slot.
   DRAM extends past [exec_sync_base]: a [V_rd]/[V_wr] may straddle the
   base and an [M_rd] may start above it, and both still read and
   write DRAM. *)
let vlen = 4
let exec_sync_base = 32
let exec_dram_words = exec_sync_base + 24
let exec_vregs = 6
let exec_mregs = 2

let gen_exec_program =
  let open QCheck.Gen in
  let vreg = int_range 0 (exec_vregs - 1) and mreg = int_range 0 (exec_mregs - 1) in
  let dram = int_range 0 (exec_sync_base - 1) in
  let slot = map (fun k -> exec_sync_base + k) (int_range 0 1) in
  let instr =
    frequency
      [
        (3, map2 (fun dst addr -> Instr.V_rd { dst; addr; len = vlen }) vreg dram);
        (3, map2 (fun src addr -> Instr.V_wr { src; addr; len = vlen }) vreg dram);
        (2, map2 (fun dst addr -> Instr.V_rd { dst; addr; len = vlen }) vreg slot);
        (3, map2 (fun src addr -> Instr.V_wr { src; addr; len = vlen }) vreg slot);
        ( 1,
          map2
            (fun dst addr -> Instr.M_rd { dst; addr; rows = vlen; cols = vlen })
            mreg
            (int_range 0 (exec_dram_words - (vlen * vlen))) );
        (2, map3 (fun dst mat src -> Instr.Mvm { dst; mat; src }) vreg mreg vreg);
        (2, map3 (fun dst a b -> Instr.Vv_add { dst; a; b }) vreg vreg vreg);
        (1, map3 (fun dst a b -> Instr.Vv_mul { dst; a; b }) vreg vreg vreg);
        (1, map2 (fun dst src -> Instr.Act { dst; src; f = Instr.Tanh }) vreg vreg);
      ]
  in
  list_size (int_range 0 60) instr

(* Distinct initial values for every register, so any misordered
   access shows in the final state, and a first send to slot 0; slot 1
   starts empty. *)
let exec_prologue =
  List.init exec_vregs (fun r ->
      Instr.V_fill { dst = r; len = vlen; value = 0.25 *. float_of_int (r + 1) })
  @ List.init exec_mregs (fun m ->
        Instr.M_rd { dst = m; addr = 7 * m; rows = vlen; cols = vlen })
  @ [ Instr.V_wr { src = 0; addr = exec_sync_base; len = vlen } ]

(* Run [p] on [Exec] with a one-part mailbox port: [Some (dram,
   registers, mailboxes)] if it completes, [None] if it stalls. *)
let exec_final p =
  let box = Hashtbl.create 8 in
  let port =
    {
      Exec.send = (fun ~addr data -> Hashtbl.replace box addr data);
      recv = (fun ~addr ~len:_ -> Hashtbl.find_opt box addr);
    }
  in
  let dram = Array.init exec_dram_words (fun i -> Float.of_int ((i * 37) mod 11) -. 5.0) in
  let ex = Exec.create ~exact:true ~sync_base:exec_sync_base ~port ~dram p in
  match Exec.run ex ~max_steps:(Program.length p + 1) with
  | Exec.Done ->
    let regs = List.init exec_vregs (Exec.vreg ex) in
    let boxes = List.sort compare (List.of_seq (Hashtbl.to_seq box)) in
    Some (Array.to_list dram, regs, boxes)
  | Exec.Stalled | Exec.Running -> None

(* One Alcotest case runs the property and then checks that at least
   half of the generated programs ran to completion. *)
let test_reorder_preserves_exec () =
  let cases = ref 0 and completed = ref 0 in
  let prop =
    QCheck.Test.make ~name:"reorder preserves Exec results" ~count:400
      (QCheck.make ~print:(fun l -> Asm.to_string (Program.make l))
         ~shrink:QCheck.Shrink.list gen_exec_program)
      (fun instrs ->
        let p =
          Program.make ~vregs:exec_vregs ~mregs:exec_mregs (exec_prologue @ instrs)
        in
        incr cases;
        match exec_final p with
        | None -> true
        | Some want ->
          incr completed;
          (* [compare], not [=]: the state may hold NaNs. *)
          compare (exec_final (Scale_out.reorder ~sync_base:exec_sync_base p)) (Some want)
          = 0)
  in
  QCheck.Test.check_exn ~rand:(QCheck_base_runner.random_state ()) prop;
  Alcotest.(check bool)
    (Printf.sprintf "at least half of the programs ran (%d of %d)" !completed !cases)
    true
    (2 * !completed >= !cases)

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

(* Reordered [mlp_latency_us] at batch 20, 2 parts and 10 tiles on the
   XCVU37P, recorded as hex floats when the reorderer and [Perf] still
   treated sync accesses as DRAM intervals.  Under the mailbox rule the
   reorderer may hoist sample b+1's sends above sample b's receive;
   the latency must not rise, and at 0 added µs it must stay what
   EXPERIMENTS.md reports. *)
let mlp_before =
  [
    ([ 512; 1024; 512 ], 0.0, 0x1.935c28f5c28e9p+4);
    ([ 512; 1024; 512 ], 0.6, 0x1.9fc80c73abc88p+4);
    ([ 512; 1024; 512 ], 1.2, 0x1.1a350b0f27bb6p+5);
    ([ 1024; 2048; 2048; 1024 ], 0.0, 0x1.ac559b3d07caap+5);
    ([ 1024; 2048; 2048; 1024 ], 0.6, 0x1.08aafcce1c598p+6);
    ([ 1024; 2048; 2048; 1024 ], 1.2, 0x1.4d0b5dcc63f13p+6);
    ([ 2048; 4096; 4096; 2048 ], 0.0, 0x1.ce8dfd8adabe2p+10);
    ([ 2048; 4096; 4096; 2048 ], 0.6, 0x1.d18dfd8adabe2p+10);
    ([ 2048; 4096; 4096; 2048 ], 1.2, 0x1.d48dfd8adabdep+10);
    ([ 4096; 4096; 4096; 4096 ], 0.0, 0x1.421d18fc5049p+12);
    ([ 4096; 4096; 4096; 4096 ], 0.6, 0x1.42dd18fc5048cp+12);
    ([ 4096; 4096; 4096; 4096 ], 1.2, 0x1.439d18fc5049p+12);
    ([ 1024; 2048; 1024 ], 0.0, 0x1.f828f5c28f5b8p+4);
    ([ 1024; 2048; 1024 ], 0.6, 0x1.0114d9407895dp+5);
    ([ 1024; 2048; 1024 ], 1.2, 0x1.29d59b3d07c88p+5);
  ]

let test_mlp_no_regression () =
  let device = Device.get Device.XCVU37P in
  let config = Config.make ~tiles:10 () in
  List.iter
    (fun (dims, added_latency_us, before) ->
      let spec = Mlp.make_spec dims in
      let lat reordered =
        Scale_out.mlp_latency_us ~parts:2 ~config ~device ~added_latency_us ~reordered
          spec ~batch:20
      in
      let got = lat true in
      let what =
        Printf.sprintf "%s +%.1fus" (String.concat "-" (List.map string_of_int dims))
          added_latency_us
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %h <= %h" what got before)
        true (got <= before);
      Alcotest.(check bool) (what ^ ": below in-order") true (got < lat false);
      (* The new schedule may sum the same critical path in another
         order, so equality is up to rounding (1 fs). *)
      if added_latency_us = 0.0 then
        Alcotest.(check (float 1e-9)) (what ^ ": unchanged at 0us") before got)
    mlp_before

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

(* Minor-heap words the service model's cold path allocates.  The
   count depends only on the code, not on the host or its load, so each
   bound is a reading plus 10%: 50,396 words for the plan (76,798
   before the reorderer scanned each instruction directly; 3.34 M
   before it stopped allocating per instruction), 12,182 for its
   timing (37,084 before near mailboxes took no table; 1.06 M) and
   762 for the LSTM timing (1,432; 103 k), whose bound was set at a
   reading of 757. *)
let check_words what ~bound f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f minor words <= %.0f" what words bound)
    true (words <= bound)

(* Words allocated straight into the major heap (arrays too large for
   the minor heap), which the minor-word count does not see: every
   word the major heap gained less the words minor collections
   promoted into it.  A full major collection first leaves no earlier
   work to finish.  Reading 220,336 for the plan (452,942 before its
   successor lists and reader stacks took one word per entry and it
   reordered its program in place). *)
let check_direct_major_words what ~bound f =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  ignore (Sys.opaque_identity (f ()));
  let s1 = Gc.quick_stat () in
  let words =
    s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.0f direct major words <= %.0f" what words bound)
    true (words <= bound)

let test_allocation_gates () =
  let plan () =
    Scale_out.plan ~reordered:true Codegen.Gru ~hidden:1024 ~input:1024 ~timesteps:1500
      ~parts:2
  in
  check_words "plan GRU h=1024 t=1500 parts=2" ~bound:55_436. plan;
  check_direct_major_words "plan GRU h=1024 t=1500 parts=2" ~bound:242_370. plan;
  let plan = plan () in
  let device = Device.get Device.XCVU37P in
  check_words "plan_latency_us at 3 tiles" ~bound:13_401. (fun () ->
      Scale_out.plan_latency_us ~config:(Config.make ~tiles:3 ~mem_kind:Config.Bram_uram ())
        ~device ~added_latency_us:0.0 plan);
  let lstm, _ = Codegen.generate Codegen.Lstm ~hidden:256 ~input:256 ~timesteps:150 in
  check_words "program_latency LSTM h=256 t=150 at 8 tiles" ~bound:833. (fun () ->
      Mlv_accel.Perf.program_latency (Config.make ~tiles:8 ()) device lstm)

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
          Alcotest.test_case "reorder preserves Exec results on random programs" `Quick
            test_reorder_preserves_exec;
        ] );
      ( "service model",
        [
          Alcotest.test_case "golden latencies" `Quick test_service_model_goldens;
          Alcotest.test_case "mlp latency no worse than interval hazards" `Quick
            test_mlp_no_regression;
          Alcotest.test_case "cold-path allocation gates" `Quick test_allocation_gates;
        ] );
    ]
