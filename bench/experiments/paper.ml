(* The paper's evaluation (Section 4) as rows: Tables 2-4, Figs. 11-12
   and the MLP and performance-isolation experiments.  [bench/main.exe]
   prints them next to the paper's values; tier-1 pins every cell
   ([test/paper.expected]) and checks the shape claims and the tables
   EXPERIMENTS.md quotes against them.  Every producer is
   deterministic. *)

module Stats = Mlv_util.Stats
module Device = Mlv_fpga.Device
module Resource = Mlv_fpga.Resource
module Config = Mlv_accel.Config
module Resource_model = Mlv_accel.Resource_model
module Perf = Mlv_accel.Perf
module Virtual_block = Mlv_vital.Virtual_block
module Codegen = Mlv_isa.Codegen
module Mlp = Mlv_isa.Mlp
module Deepbench = Mlv_workload.Deepbench
module Genset = Mlv_workload.Genset
module Runtime = Mlv_core.Runtime
module Scale_out = Mlv_core.Scale_out
module Sysim = Mlv_sysim.Sysim

let vu37p = Device.get Device.XCVU37P
let ku115 = Device.get Device.XCKU115

(* ---------------- Table 2: baseline accelerator instances ---------------- *)

type table2_row = {
  instance : string;
  device : Device.t;
  tiles : int;
  used : Resource.t;
  freq_mhz : float;  (** floorplanned *)
  peak_tflops : float;
}

let table2 () =
  List.map
    (fun (instance, device) ->
      let cfg = Resource_model.baseline_config device in
      {
        instance;
        device;
        tiles = cfg.Config.tiles;
        used = Resource_model.accel_resources cfg device;
        freq_mhz = Resource_model.achieved_freq_mhz cfg device ~floorplanned:true;
        peak_tflops = Resource_model.peak_tflops cfg device;
      })
    [ ("BW-V37", vu37p); ("BW-K115", ku115) ]

(* ---------------- Table 3: one virtual block per device type ---------------- *)

let table3 () = List.map Virtual_block.implementation_report Device.kinds

(* ---------------- Table 4: single-FPGA latency ---------------- *)

type table4_cell = { base_us : float; vital_us : float }

let table4_devices = [ vu37p; ku115 ]

(* The baseline instance's latency bare and through pattern-aware
   virtual blocks; [None] is the paper's dash: the model's weights do
   not fit the instance. *)
let table4_cell (p : Deepbench.point) (dev : Device.t) =
  let cfg = Resource_model.baseline_config dev in
  if Deepbench.weight_words p > Config.weight_capacity_words cfg then None
  else begin
    let program, _ = Deepbench.program p in
    let base_us = (Perf.program_latency cfg dev program).Perf.total_us in
    let vbs = ((cfg.Config.tiles + 1) / Virtual_block.engines_per_block dev.Device.kind) + 3 in
    let vital_us =
      (Perf.program_latency cfg dev
         ~deploy:(Perf.vital_deploy ~virtual_blocks:vbs ~pattern_aware:true)
         program)
        .Perf.total_us
    in
    Some { base_us; vital_us }
  end

(* Per point, one cell per device of [table4_devices]. *)
let table4 () =
  List.map
    (fun p -> (p, List.map (table4_cell p) table4_devices))
    Deepbench.table4_points

let overhead c = (c.vital_us -. c.base_us) /. c.base_us

(* (min, max) virtualization overhead over the cells that fit. *)
let table4_band rows =
  List.fold_left
    (fun band (_, cells) ->
      List.fold_left
        (fun (lo, hi) -> function
          | None -> (lo, hi)
          | Some c -> (Float.min lo (overhead c), Float.max hi (overhead c)))
        band cells)
    (infinity, neg_infinity) rows

(* ---------------- Fig. 11: inter-FPGA latency sweep ---------------- *)

type fig11_curve = {
  name : string;
  kind : Codegen.kind;
  hidden : int;
  part_tiles : int;  (** tiles of each FPGA's part *)
}

let fig11_curves =
  [
    { name = "LSTM h=1024"; kind = Codegen.Lstm; hidden = 1024; part_tiles = 10 };
    { name = "GRU h=1024"; kind = Codegen.Gru; hidden = 1024; part_tiles = 10 };
    { name = "GRU h=2560"; kind = Codegen.Gru; hidden = 2560; part_tiles = 21 };
  ]

(* Added ring latency, µs. *)
let fig11_added = [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0; 1.2 ]

(* µs per timestep of a 2-FPGA deployment on XCVU37P parts, 50
   timesteps. *)
let fig11_us_per_step c ~reordered added =
  let timesteps = 50 in
  Scale_out.two_fpga_latency_us ~config:(Config.make ~tiles:c.part_tiles ()) ~device:vu37p
    ~added_latency_us:added ~reordered c.kind ~hidden:c.hidden ~input:c.hidden ~timesteps
  /. float_of_int timesteps

type fig11_row = {
  curve : fig11_curve;
  reordered : float list;  (** one per [fig11_added] *)
  in_order_at_0_6 : float;  (** the no-reorder column, at +0.6 µs *)
}

let fig11 () =
  List.map
    (fun curve ->
      let reordered = List.map (fig11_us_per_step curve ~reordered:true) fig11_added in
      { curve; reordered; in_order_at_0_6 = fig11_us_per_step curve ~reordered:false 0.6 })
    fig11_curves

(* ---------------- Fig. 12: aggregated system throughput ---------------- *)

let fig12_tasks = 120

(* Tasks/s of one workload set under one management policy. *)
let fig12_throughput ~registry ~tasks policy composition =
  let cfg = Sysim.default_config ~policy ~composition in
  (Sysim.run ~registry { cfg with Sysim.tasks }).Sysim.throughput_per_s

type fig12_row = {
  composition : Genset.composition;
  baseline : float;  (** AS-ISA only *)
  restricted : float;  (** same device type only *)
  greedy : float;  (** this work *)
}

(* One row per Table 1 workload set, [fig12_tasks] tasks each. *)
let fig12 ~registry =
  Array.to_list
    (Array.map
       (fun composition ->
         let run policy = fig12_throughput ~registry ~tasks:fig12_tasks policy composition in
         let baseline = run Runtime.baseline in
         let restricted = run Runtime.restricted in
         let greedy = run Runtime.greedy in
         { composition; baseline; restricted; greedy })
       Genset.table1)

(* Mean speedup of this work over the baseline and over the restricted
   policy. *)
let fig12_mean_speedups rows =
  let mean f = Stats.mean (List.rev_map f rows) in
  (mean (fun r -> r.greedy /. r.baseline), mean (fun r -> r.greedy /. r.restricted))

(* ---------------- Extension: MLP/GEMV serving ---------------- *)

let mlp_batch = 20

type mlp_row = {
  dims : int list;
  weight_words : int;
  single_us : float;  (** µs per sample, 1 FPGA *)
  two_reordered_us : float;  (** 2 FPGAs, reordered *)
  two_in_order_us : float;
}

let mlp () =
  List.map
    (fun dims ->
      let spec = Mlp.make_spec dims in
      let cfg = Resource_model.baseline_config vu37p in
      let program, _ = Mlp.generate spec ~batch:mlp_batch in
      let single_us =
        (Perf.program_latency cfg vu37p
           ~deploy:(Perf.vital_deploy ~virtual_blocks:14 ~pattern_aware:true)
           program)
          .Perf.total_us
        /. float_of_int mlp_batch
      in
      let half = Config.make ~tiles:10 () in
      let two reordered =
        Scale_out.mlp_latency_us ~parts:2 ~config:half ~device:vu37p ~added_latency_us:0.0
          ~reordered spec ~batch:mlp_batch
        /. float_of_int mlp_batch
      in
      let two_reordered_us = two true in
      let two_in_order_us = two false in
      {
        dims;
        weight_words = Mlp.weight_words spec;
        single_us;
        two_reordered_us;
        two_in_order_us;
      })
    [
      [ 512; 1024; 512 ];
      [ 1024; 2048; 2048; 1024 ];
      [ 2048; 4096; 4096; 2048 ];
      [ 4096; 4096; 4096; 4096 ];
    ]

(* ---------------- Performance isolation (Section 4.4) ---------------- *)

type isolation_row = {
  instr_buffer : bool;
  solo_us : float;
  two_us : float;  (** with one co-tenant on the device *)
  four_us : float;  (** with three *)
}

(* A 6-tile GRU h=512 instance solo and with co-tenants sharing the
   device's DRAM, with the on-chip instruction buffer on (the paper's
   design) and off. *)
let isolation () =
  let cfg = Config.make ~tiles:6 () in
  let program, _ = Codegen.generate Codegen.Gru ~hidden:512 ~input:512 ~timesteps:50 in
  let lat ~instr_buffer ~sharers =
    (Perf.program_latency cfg vu37p
       ~deploy:(Perf.vital_deploy ~virtual_blocks:6 ~pattern_aware:true)
       ~instr_buffer ~dram_sharers:sharers program)
      .Perf.total_us
  in
  List.map
    (fun instr_buffer ->
      let solo_us = lat ~instr_buffer ~sharers:1 in
      let two_us = lat ~instr_buffer ~sharers:2 in
      let four_us = lat ~instr_buffer ~sharers:4 in
      { instr_buffer; solo_us; two_us; four_us })
    [ true; false ]
