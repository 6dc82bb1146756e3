(* Prints every cell of the paper's experiments (Tables 2-4, Figs.
   11-12, MLP, isolation), one per line: the value rounded as a reader
   compares it with the paper and, for floats, as [%h], every bit.
   The runtest alias diffs this output against [paper.expected]; a
   change that moves the modelled system shows its moved cells there,
   and [dune promote] accepts them. *)

module Paper = Mlv_experiments.Paper
module Device = Mlv_fpga.Device
module Resource = Mlv_fpga.Resource
module Virtual_block = Mlv_vital.Virtual_block
module Deepbench = Mlv_workload.Deepbench
module Genset = Mlv_workload.Genset
module Sysim = Mlv_sysim.Sysim

let key_width = 52

let int_cell key v = Printf.printf "%-*s %12d\n" key_width key v

let float_cell ~digits key v =
  Printf.printf "%-*s %12.*f  %h\n" key_width key digits v v

let dash_cell key = Printf.printf "%-*s %12s\n" key_width key "-"

let header title = Printf.printf "\n# %s\n" title

let resources prefix (r : Resource.t) =
  int_cell (prefix ^ " luts") r.Resource.luts;
  int_cell (prefix ^ " dffs") r.Resource.dffs;
  int_cell (prefix ^ " bram_kb") r.Resource.bram_kb;
  int_cell (prefix ^ " uram_kb") r.Resource.uram_kb;
  int_cell (prefix ^ " dsps") r.Resource.dsps

let () =
  print_string
    "# The paper's experiments, one cell per line: key, rounded value,\n\
     # and for floats every bit (%h).  Regenerate with `dune runtest`;\n\
     # accept a deliberate change with `dune promote`.\n";
  header "Table 2: baseline accelerator instances";
  List.iter
    (fun (r : Paper.table2_row) ->
      let k = Printf.sprintf "table2 %s %s" r.Paper.instance r.Paper.device.Device.name in
      int_cell (k ^ " tiles") r.Paper.tiles;
      resources k r.Paper.used;
      float_cell ~digits:0 (k ^ " freq_mhz") r.Paper.freq_mhz;
      float_cell ~digits:1 (k ^ " peak_tflops") r.Paper.peak_tflops)
    (Paper.table2 ());
  header "Table 3: one virtual block";
  List.iter
    (fun (r : Virtual_block.impl_report) ->
      let k = "table3 " ^ Device.kind_name r.Virtual_block.device in
      resources k r.Virtual_block.used;
      float_cell ~digits:0 (k ^ " freq_mhz") r.Virtual_block.freq_mhz;
      float_cell ~digits:2 (k ^ " peak_tflops") r.Virtual_block.peak_tflops)
    (Paper.table3 ());
  header "Table 4: single-FPGA latency (us), baseline and through virtual blocks";
  let table4 = Paper.table4 () in
  List.iter
    (fun (p, cells) ->
      List.iter2
        (fun (dev : Device.t) cell ->
          let k = Printf.sprintf "table4 %s %s" (Deepbench.name p) dev.Device.name in
          match cell with
          | None -> dash_cell (k ^ " (does not fit)")
          | Some c ->
            float_cell ~digits:2 (k ^ " base_us") c.Paper.base_us;
            float_cell ~digits:2 (k ^ " vital_us") c.Paper.vital_us)
        Paper.table4_devices cells)
    table4;
  let lo, hi = Paper.table4_band table4 in
  float_cell ~digits:1 "table4 overhead band min %" (100.0 *. lo);
  float_cell ~digits:1 "table4 overhead band max %" (100.0 *. hi);
  header "Fig. 11: us per timestep, 2 FPGAs, by added ring latency (us)";
  List.iter
    (fun (r : Paper.fig11_row) ->
      let k = "fig11 " ^ r.Paper.curve.Paper.name in
      List.iter2
        (fun added v -> float_cell ~digits:2 (Printf.sprintf "%s +%.1f" k added) v)
        Paper.fig11_added r.Paper.reordered;
      float_cell ~digits:2 (k ^ " no-reorder +0.6") r.Paper.in_order_at_0_6)
    (Paper.fig11 ());
  header
    (Printf.sprintf "Fig. 12: throughput (tasks/s) per workload set, %d tasks"
       Paper.fig12_tasks);
  let fig12 = Paper.fig12 ~registry:(Sysim.build_registry ()) in
  List.iteri
    (fun i (r : Paper.fig12_row) ->
      let k =
        Printf.sprintf "fig12 set %d %s" (i + 1) (Genset.composition_name r.Paper.composition)
      in
      float_cell ~digits:1 (k ^ " baseline") r.Paper.baseline;
      float_cell ~digits:1 (k ^ " restricted") r.Paper.restricted;
      float_cell ~digits:1 (k ^ " greedy") r.Paper.greedy)
    fig12;
  let vs_base, vs_restr = Paper.fig12_mean_speedups fig12 in
  float_cell ~digits:2 "fig12 mean speedup vs baseline" vs_base;
  float_cell ~digits:2 "fig12 mean speedup vs restricted" vs_restr;
  header "MLP/GEMV serving: us per sample, batch 20";
  List.iter
    (fun (r : Paper.mlp_row) ->
      let k = "mlp " ^ String.concat "-" (List.map string_of_int r.Paper.dims) in
      int_cell (k ^ " weight_words") r.Paper.weight_words;
      float_cell ~digits:2 (k ^ " 1 FPGA") r.Paper.single_us;
      float_cell ~digits:2 (k ^ " 2 FPGAs reordered") r.Paper.two_reordered_us;
      float_cell ~digits:2 (k ^ " 2 FPGAs in-order") r.Paper.two_in_order_us)
    (Paper.mlp ());
  header "Performance isolation: GRU h=512 latency (us) by tenants on the device";
  List.iter
    (fun (r : Paper.isolation_row) ->
      let k =
        Printf.sprintf "isolation buffer %s" (if r.Paper.instr_buffer then "on" else "off")
      in
      float_cell ~digits:1 (k ^ " solo") r.Paper.solo_us;
      float_cell ~digits:1 (k ^ " 2 tenants") r.Paper.two_us;
      float_cell ~digits:1 (k ^ " 4 tenants") r.Paper.four_us)
    (Paper.isolation ())
