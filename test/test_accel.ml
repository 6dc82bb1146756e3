(* Tests for the accelerator substrate: configuration, resource
   model (Table 2 calibration), RTL generation, performance model and
   the synchronization template. *)

module Config = Mlv_accel.Config
module Resource_model = Mlv_accel.Resource_model
module Rtl_gen = Mlv_accel.Rtl_gen
module Perf = Mlv_accel.Perf
module Perf_oracle = Mlv_oracle.Perf_oracle
module Sync_module = Mlv_accel.Sync_module
module Device = Mlv_fpga.Device
module Resource = Mlv_fpga.Resource
module Design = Mlv_rtl.Design
module Ast = Mlv_rtl.Ast
module Codegen = Mlv_isa.Codegen
module Instr = Mlv_isa.Instr
module Program = Mlv_isa.Program

let vu37p = Device.get Device.XCVU37P
let ku115 = Device.get Device.XCKU115

(* ---------------- Config ---------------- *)

let test_config_defaults () =
  let c = Config.make ~tiles:21 () in
  Alcotest.(check int) "macs" (21 * 16 * 128) (Config.macs_per_cycle c);
  Alcotest.(check bool) "capacity grows" true
    (Config.weight_capacity_words c > Config.weight_capacity_words (Config.make ~tiles:13 ()))

let test_config_validation () =
  Alcotest.(check bool) "zero tiles" true
    (try
       ignore (Config.make ~tiles:0 ());
       false
     with Invalid_argument _ -> true)

let test_config_scale_down () =
  let c = Config.make ~tiles:21 () in
  let s = Config.scale_down c ~tiles:10 in
  Alcotest.(check int) "tiles" 10 s.Config.tiles;
  Alcotest.(check int) "lanes unchanged" c.Config.lanes s.Config.lanes;
  Alcotest.(check bool) "too many" true
    (try
       ignore (Config.scale_down c ~tiles:22);
       false
     with Invalid_argument _ -> true)

let test_config_weight_capacity_fit_line () =
  (* Table 4's fit matrix: LSTM h=1536 fits the VU37P baseline but
     not the KU115 one; GRU h=1536 fits both; GRU h=2560 fits
     neither. *)
  let cap_vu = Config.weight_capacity_words (Resource_model.baseline_config vu37p) in
  let cap_ku = Config.weight_capacity_words (Resource_model.baseline_config ku115) in
  let lstm1536 = 8 * 1536 * 1536 in
  let gru1536 = 6 * 1536 * 1536 in
  let gru2560 = 6 * 2560 * 2560 in
  Alcotest.(check bool) "LSTM1536 on VU37P" true (lstm1536 <= cap_vu);
  Alcotest.(check bool) "LSTM1536 not on KU115" false (lstm1536 <= cap_ku);
  Alcotest.(check bool) "GRU1536 on both" true (gru1536 <= cap_ku);
  Alcotest.(check bool) "GRU2560 nowhere" false (gru2560 <= cap_vu)

(* ---------------- Resource model (Table 2) ---------------- *)

let test_baseline_tile_counts () =
  Alcotest.(check int) "VU37P 21 tiles" 21 (Resource_model.max_tiles vu37p);
  Alcotest.(check int) "KU115 13 tiles" 13 (Resource_model.max_tiles ku115)

let test_table2_resources () =
  (* Within 3% of the paper's Table 2 on every component it reports. *)
  let close ?(tol = 0.03) label expect actual =
    let rel = Float.abs (float_of_int actual -. expect) /. expect in
    Alcotest.(check bool) (Printf.sprintf "%s (%d vs %.0f)" label actual expect) true
      (rel <= tol)
  in
  let r_vu = Resource_model.accel_resources (Resource_model.baseline_config vu37p) vu37p in
  close "VU37P LUTs" 610_000.0 r_vu.Resource.luts;
  close "VU37P DFFs" 659_000.0 r_vu.Resource.dffs;
  close "VU37P BRAM" (51.5 *. 1024.0) r_vu.Resource.bram_kb;
  close ~tol:0.05 "VU37P URAM" (22.5 *. 1024.0) r_vu.Resource.uram_kb;
  close "VU37P DSPs" 7517.0 r_vu.Resource.dsps;
  let r_ku = Resource_model.accel_resources (Resource_model.baseline_config ku115) ku115 in
  close "KU115 LUTs" 367_000.0 r_ku.Resource.luts;
  close "KU115 DFFs" 386_000.0 r_ku.Resource.dffs;
  close ~tol:0.05 "KU115 BRAM" (45.4 *. 1024.0) r_ku.Resource.bram_kb;
  close "KU115 DSPs" 5073.0 r_ku.Resource.dsps;
  Alcotest.(check int) "KU115 no URAM" 0 r_ku.Resource.uram_kb

let test_table2_frequency_and_peak () =
  let f_vu =
    Resource_model.achieved_freq_mhz (Resource_model.baseline_config vu37p) vu37p
      ~floorplanned:true
  in
  Alcotest.(check (float 1.0)) "VU37P 400MHz" 400.0 f_vu;
  let f_ku =
    Resource_model.achieved_freq_mhz (Resource_model.baseline_config ku115) ku115
      ~floorplanned:true
  in
  Alcotest.(check (float 1.0)) "KU115 300MHz" 300.0 f_ku;
  let p_vu = Resource_model.peak_tflops (Resource_model.baseline_config vu37p) vu37p in
  Alcotest.(check bool) "peak ~36 TFLOPS" true (Float.abs (p_vu -. 36.0) < 2.0);
  let p_ku = Resource_model.peak_tflops (Resource_model.baseline_config ku115) ku115 in
  Alcotest.(check bool) "peak ~16.7 TFLOPS" true (Float.abs (p_ku -. 16.7) < 1.5)

let test_floorplanning_needed () =
  (* Without floorplanning the baseline misses its frequency target
     (the reason the paper uses Fig. 10's manual floorplan). *)
  let f =
    Resource_model.achieved_freq_mhz (Resource_model.baseline_config vu37p) vu37p
      ~floorplanned:false
  in
  Alcotest.(check bool) "slower without floorplan" true (f < 350.0)

(* ---------------- Rtl_gen ---------------- *)

let toy = Config.make ~tiles:3 ~lanes:4 ~rows_per_tile:2 ~vrf_words:64 ~instr_buffer_words:64 ()

let test_rtl_validates () =
  let d = Rtl_gen.generate toy in
  Alcotest.(check (list string)) "valid" [] (Design.validate d);
  Alcotest.(check string) "top" Rtl_gen.top_name (Design.top d).Ast.mod_name

let test_rtl_control_attr () =
  let d = Rtl_gen.generate toy in
  let ctl = Design.find_exn d Rtl_gen.control_name in
  Alcotest.(check bool) "control_path attr" true (List.mem "control_path" ctl.Ast.attrs)

let test_rtl_engine_count_scales () =
  let count tiles =
    let d = Rtl_gen.generate (Config.make ~tiles ~lanes:4 ~rows_per_tile:2 ()) in
    let top = Design.find_exn d Rtl_gen.top_name in
    List.length
      (List.filter
         (fun (i : Ast.instance) -> i.Ast.master = Ast.M_module Rtl_gen.engine_name)
         top.Ast.instances)
  in
  Alcotest.(check int) "3 engines" 3 (count 3);
  Alcotest.(check int) "7 engines" 7 (count 7)

let test_rtl_small_instance_pads_writeback () =
  (* tiles * rows * 16 < lanes * 16 exercises the zero-pad path. *)
  let c = Config.make ~tiles:1 ~lanes:8 ~rows_per_tile:2 () in
  let d = Rtl_gen.generate c in
  Alcotest.(check (list string)) "valid" [] (Design.validate d)

let test_rtl_census_scales_with_tiles () =
  let flat tiles =
    let d = Rtl_gen.generate (Config.make ~tiles ~lanes:4 ~rows_per_tile:2 ()) in
    Design.flat_instance_count d Rtl_gen.top_name
  in
  Alcotest.(check bool) "more tiles, more prims" true (flat 6 > flat 3)

(* ---------------- Perf ---------------- *)

let test_perf_mvm_cycles () =
  let c = Config.make ~tiles:21 () in
  (* 1024x1024 on 21x16 rows x 128 lanes: ceil(1024/336)*ceil(1024/128) *)
  Alcotest.(check int) "mvm cycles" (4 * 8) (Perf.mvm_cycles c ~rows:1024 ~cols:1024);
  Alcotest.(check int) "small" 1 (Perf.mvm_cycles c ~rows:1 ~cols:1)

let test_perf_monotone_in_model_size () =
  let c = Resource_model.baseline_config vu37p in
  let lat h =
    let p, _ = Codegen.generate Codegen.Gru ~hidden:h ~input:h ~timesteps:10 in
    (Perf.program_latency c vu37p p).Perf.total_us
  in
  Alcotest.(check bool) "monotone" true (lat 256 < lat 512 && lat 512 < lat 1024)

let test_perf_more_tiles_faster () =
  let lat tiles =
    let c = Config.make ~tiles () in
    let p, _ = Codegen.generate Codegen.Gru ~hidden:1024 ~input:1024 ~timesteps:10 in
    (Perf.program_latency c vu37p p).Perf.total_us
  in
  Alcotest.(check bool) "more tiles help" true (lat 21 < lat 8)

let test_perf_vital_overhead_band () =
  (* Paper Table 4: the virtualization overhead stays in the
     3-9% band. *)
  List.iter
    (fun (kind, h, t) ->
      let c = Resource_model.baseline_config vu37p in
      let p, _ = Codegen.generate kind ~hidden:h ~input:h ~timesteps:t in
      let base = (Perf.program_latency c vu37p p).Perf.total_us in
      let vital =
        (Perf.program_latency c vu37p
           ~deploy:(Perf.vital_deploy ~virtual_blocks:14 ~pattern_aware:true)
           p)
          .Perf.total_us
      in
      let overhead = (vital -. base) /. base in
      Alcotest.(check bool)
        (Printf.sprintf "%s h=%d overhead %.1f%%" (Codegen.kind_name kind) h
           (overhead *. 100.0))
        true
        (overhead > 0.0 && overhead < 0.10))
    [ (Codegen.Gru, 512, 1); (Codegen.Gru, 1024, 20); (Codegen.Lstm, 512, 10) ]

let test_perf_pattern_oblivious_worse () =
  let c = Resource_model.baseline_config vu37p in
  let p, _ = Codegen.generate Codegen.Lstm ~hidden:1024 ~input:1024 ~timesteps:10 in
  let aware =
    (Perf.program_latency c vu37p
       ~deploy:(Perf.vital_deploy ~virtual_blocks:14 ~pattern_aware:true)
       p)
      .Perf.total_us
  in
  let naive =
    (Perf.program_latency c vu37p
       ~deploy:(Perf.vital_deploy ~virtual_blocks:14 ~pattern_aware:false)
       p)
      .Perf.total_us
  in
  Alcotest.(check bool) "pattern-aware wins" true (aware < naive)

let test_perf_weight_streaming_penalty () =
  (* A model over on-chip capacity streams the overflow and slows
     down dramatically (Table 4's KU115 LSTM-1536 dash). *)
  let c = Resource_model.baseline_config ku115 in
  let p, _ = Codegen.generate Codegen.Lstm ~hidden:1536 ~input:1536 ~timesteps:10 in
  let resident = (Perf.program_latency c ku115 ~weights_resident:true p).Perf.total_us in
  let p_small, _ = Codegen.generate Codegen.Lstm ~hidden:1024 ~input:1024 ~timesteps:10 in
  let small = (Perf.program_latency c ku115 p_small).Perf.total_us in
  (* 1536 overflows on KU115 even when "resident": overflow streams. *)
  Alcotest.(check bool) "overflow streams" true (resident > 5.0 *. small)

let test_perf_sync_read_blocks () =
  (* Without the matching send posted, a sync read still takes its
     nominal time; with extra latency it waits for arrival. *)
  let c = Config.make ~tiles:4 () in
  let sync_base = 10_000 in
  let p =
    Program.make
      [
        Instr.V_fill { dst = 0; len = 128; value = 1.0 };
        Instr.V_wr { src = 0; addr = sync_base; len = 128 };
        Instr.V_rd { dst = 1; addr = sync_base; len = 256 };
      ]
  in
  let lat extra_us =
    let extra (i : Instr.t) =
      match i with
      | Instr.V_rd { addr; _ } when addr >= sync_base -> extra_us
      | _ -> 0.0
    in
    (Perf.program_latency c vu37p ~sync_base ~extra_latency_us:extra p).Perf.total_us
  in
  Alcotest.(check bool) "arrival delays" true (lat 50.0 > lat 0.0 +. 40.0)

let test_perf_sync_read_own_slot () =
  (* Sync slots are mailboxes keyed by address: a receive waits for
     the send to its own slot, even when its length spans the next
     one.  Here the send to slot 0 is posted long before the receive,
     so the transfer hides behind the compute; the later send to slot
     1 must not delay it. *)
  let c = Config.make ~tiles:4 () in
  let sync_base = 10_000 in
  let p =
    Program.make
      ([
         Instr.M_rd { dst = 0; addr = 0; rows = 1024; cols = 1024 };
         Instr.V_fill { dst = 0; len = 128; value = 1.0 };
         Instr.V_fill { dst = 2; len = 1024; value = 1.0 };
         Instr.V_wr { src = 0; addr = sync_base; len = 128 };
       ]
      @ List.init 4 (fun _ -> Instr.Mvm { dst = 3; mat = 0; src = 2 })
      @ [
          Instr.V_wr { src = 0; addr = sync_base + 1; len = 128 };
          Instr.V_rd { dst = 1; addr = sync_base; len = 256 };
        ])
  in
  let extra_us = 2.0 in
  let run extra_us =
    let sends = ref [] in
    let extra (i : Instr.t) =
      match i with
      | Instr.V_rd { addr; _ } when addr >= sync_base -> extra_us
      | _ -> 0.0
    in
    let trace (i : Instr.t) ~start ~finish =
      match i with
      | Instr.V_wr _ -> sends := (start, finish) :: !sends
      | _ -> ()
    in
    let total =
      (Perf.program_latency c vu37p ~sync_base ~extra_latency_us:extra ~trace p)
        .Perf.total_us
    in
    (total, List.rev !sends)
  in
  let total, sends = run extra_us in
  (match sends with
  | [ (_, first_posted); (second_start, _) ] ->
    Alcotest.(check bool) "the compute between the sends covers the transfer" true
      (second_start -. first_posted > extra_us)
  | _ -> Alcotest.fail "expected two sends");
  Alcotest.(check (float 0.0)) "the receive does not wait for slot 1" (fst (run 0.0)) total

(* [Perf.program_latency] against the reference interpreter in
   [Perf_oracle], on random programs with hardware loops, indexed and
   sync accesses, under random deployments and options: every
   [breakdown] field, and the trace when one is asked for, to the
   bit. *)
let perf_sync_base = 64

let gen_perf_case =
  let open QCheck.Gen in
  let vreg = int_range 0 5 and mreg = int_range 0 2 in
  (* A quarter of the accesses go to one of four sync slots, so sends
     and receives to the same slot are common.  The fourth lies further
     above the base than any program is long, where the interpreter
     keeps its mailbox in a table rather than by offset. *)
  let addr =
    frequency
      [
        (3, int_range 0 (perf_sync_base - 1));
        (1, map (fun k -> perf_sync_base + k) (oneofl [ 0; 1; 2; 1_000 ]));
      ]
  and len = int_range 1 300 in
  let act = oneofl [ Instr.Sigmoid; Instr.Tanh; Instr.Relu; Instr.Identity ] in
  let instr =
    frequency
      [
        (3, map3 (fun dst addr len -> Instr.V_rd { dst; addr; len }) vreg addr len);
        (3, map3 (fun src addr len -> Instr.V_wr { src; addr; len }) vreg addr len);
        (1, map2 (fun dst len -> Instr.V_fill { dst; len; value = 0.5 }) vreg len);
        ( 2,
          map3
            (fun dst addr (rows, cols) -> Instr.M_rd { dst; addr; rows; cols })
            mreg addr
            (pair (int_range 1 2000) (int_range 1 2000)) );
        (3, map3 (fun dst mat src -> Instr.Mvm { dst; mat; src }) vreg mreg vreg);
        (2, map3 (fun dst a b -> Instr.Vv_add { dst; a; b }) vreg vreg vreg);
        (1, map3 (fun dst a b -> Instr.Vv_sub { dst; a; b }) vreg vreg vreg);
        (1, map3 (fun dst a b -> Instr.Vv_mul { dst; a; b }) vreg vreg vreg);
        (2, map3 (fun dst src f -> Instr.Act { dst; src; f }) vreg vreg act);
        (1, return Instr.Nop);
        (1, map (fun count -> Instr.Loop { count }) (int_range 1 3));
        (1, return Instr.End_loop);
        ( 1,
          map3
            (fun dst (base, stride) len -> Instr.V_rd_i { dst; base; stride; len })
            vreg (pair addr (int_range 0 9)) len );
        ( 1,
          map3
            (fun src (base, stride) len -> Instr.V_wr_i { src; base; stride; len })
            vreg (pair addr (int_range 0 9)) len );
      ]
  in
  let deploy =
    oneof
      [
        return Perf.bare;
        map2
          (fun virtual_blocks pattern_aware -> Perf.vital_deploy ~virtual_blocks ~pattern_aware)
          (int_range 0 20) bool;
      ]
  in
  (* 0: no extra latency; 1: a transfer on every sync receive; 2: a
     charge on every instruction, by opcode. *)
  let extra = pair (int_range 0 2) (float_range 0.0 5.0) in
  let options =
    pair
      (triple (int_range 1 4) bool deploy)
      (triple (pair bool bool) (pair (int_range 1 4) (float_range 1.0 2.0)) (pair extra bool))
  in
  pair (list_size (int_range 0 40) instr) options

let perf_case_print (instrs, _) = Mlv_isa.Asm.to_string (Program.make instrs)

let prop_perf_matches_oracle =
  QCheck.Test.make ~name:"program_latency equals the oracle on random programs" ~count:400
    (QCheck.make ~print:perf_case_print gen_perf_case)
    (fun ( instrs,
           ( (tiles, on_ku115, deploy),
             ((weights_resident, instr_buffer), (dram_sharers, partner_stretch), ((which, x), traced))
           ) ) ->
      let p = Program.make ~vregs:6 ~mregs:3 instrs in
      let c = Config.make ~tiles () in
      let dev = if on_ku115 then ku115 else vu37p in
      let extra_latency_us =
        match which with
        | 0 -> None
        | 1 ->
          Some
            (fun (i : Instr.t) ->
              match i with
              | Instr.V_rd { addr; _ } when addr >= perf_sync_base -> x
              | _ -> 0.0)
        | _ -> Some (fun i -> x *. float_of_int (String.length (Instr.opcode i)))
      in
      let run ~oracle =
        let latency =
          if oracle then Perf_oracle.program_latency else Perf.program_latency
        in
        let log = ref [] in
        let trace =
          if traced then
            Some
              (fun i ~start ~finish ->
                log := (i, Int64.bits_of_float start, Int64.bits_of_float finish) :: !log)
          else None
        in
        let b : Perf.breakdown =
          latency c dev ~deploy ~weights_resident ~instr_buffer ~dram_sharers
            ~partner_stretch ?extra_latency_us ~sync_base:perf_sync_base ?trace p
        in
        ( ( Int64.bits_of_float b.Perf.total_us,
            b.Perf.compute_cycles,
            Int64.bits_of_float b.Perf.memory_us,
            b.Perf.li_cycles,
            b.Perf.instructions,
            Int64.bits_of_float b.Perf.freq_mhz ),
          !log )
      in
      run ~oracle:false = run ~oracle:true)

(* ---------------- Sync module ---------------- *)

let test_sync_module_rtl_valid () =
  let p = Sync_module.make ~sync_base:100_000 () in
  let m = Sync_module.rtl p in
  let d = Design.of_modules [ m ] in
  Alcotest.(check (list string)) "valid" [] (Design.validate d);
  Alcotest.(check bool) "basic" true (Ast.is_basic m)

let test_sync_module_resources_small () =
  let p = Sync_module.make ~sync_base:100_000 () in
  let r = Sync_module.resources p in
  (* Much smaller than a tile engine: that is why scale-down is cheap. *)
  let tile = Resource_model.tile_resources vu37p in
  Alcotest.(check bool) "fraction of a tile" true
    (r.Resource.luts * 5 < tile.Resource.luts);
  Alcotest.(check bool) "has a buffer" true (r.Resource.bram_kb > 0)

let test_sync_module_validation () =
  Alcotest.(check bool) "bad base" true
    (try
       ignore (Sync_module.make ~sync_base:0 ());
       false
     with Invalid_argument _ -> true)

(* Property: accelerator resources are monotone in tile count. *)
let prop_resources_monotone =
  QCheck.Test.make ~name:"resources monotone in tiles" ~count:30
    QCheck.(int_range 1 30)
    (fun tiles ->
      let r1 = Resource_model.accel_resources (Config.make ~tiles ()) vu37p in
      let r2 = Resource_model.accel_resources (Config.make ~tiles:(tiles + 1) ()) vu37p in
      Resource.fits ~need:r1 ~avail:r2)

(* Property: generated RTL validates for any small config. *)
let prop_rtl_valid =
  QCheck.Test.make ~name:"generated RTL validates" ~count:12
    QCheck.(pair (int_range 1 5) (int_range 1 3))
    (fun (tiles, rows) ->
      let c = Config.make ~tiles ~lanes:4 ~rows_per_tile:rows () in
      Design.validate (Rtl_gen.generate c) = [])

let () =
  Alcotest.run "accel"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "scale down" `Quick test_config_scale_down;
          Alcotest.test_case "Table 4 fit line" `Quick test_config_weight_capacity_fit_line;
        ] );
      ( "resource_model",
        [
          Alcotest.test_case "baseline tile counts" `Quick test_baseline_tile_counts;
          Alcotest.test_case "Table 2 resources" `Quick test_table2_resources;
          Alcotest.test_case "Table 2 frequency/peak" `Quick test_table2_frequency_and_peak;
          Alcotest.test_case "floorplanning needed" `Quick test_floorplanning_needed;
          QCheck_alcotest.to_alcotest prop_resources_monotone;
        ] );
      ( "rtl_gen",
        [
          Alcotest.test_case "validates" `Quick test_rtl_validates;
          Alcotest.test_case "control attribute" `Quick test_rtl_control_attr;
          Alcotest.test_case "engine count scales" `Quick test_rtl_engine_count_scales;
          Alcotest.test_case "small instance pads" `Quick test_rtl_small_instance_pads_writeback;
          Alcotest.test_case "census scales" `Quick test_rtl_census_scales_with_tiles;
          QCheck_alcotest.to_alcotest prop_rtl_valid;
        ] );
      ( "perf",
        [
          Alcotest.test_case "mvm cycles" `Quick test_perf_mvm_cycles;
          Alcotest.test_case "monotone in model" `Quick test_perf_monotone_in_model_size;
          Alcotest.test_case "more tiles faster" `Quick test_perf_more_tiles_faster;
          Alcotest.test_case "vital overhead band" `Quick test_perf_vital_overhead_band;
          Alcotest.test_case "pattern-oblivious worse" `Quick test_perf_pattern_oblivious_worse;
          Alcotest.test_case "weight streaming penalty" `Quick test_perf_weight_streaming_penalty;
          Alcotest.test_case "sync arrival" `Quick test_perf_sync_read_blocks;
          Alcotest.test_case "sync arrival is per slot" `Quick test_perf_sync_read_own_slot;
          QCheck_alcotest.to_alcotest prop_perf_matches_oracle;
        ] );
      ( "sync_module",
        [
          Alcotest.test_case "rtl valid" `Quick test_sync_module_rtl_valid;
          Alcotest.test_case "resources small" `Quick test_sync_module_resources_small;
          Alcotest.test_case "validation" `Quick test_sync_module_validation;
        ] );
    ]
