(* The paper's results as tier-1 goldens: Fig. 12's ten workload sets
   under the three management policies at 120 tasks, Table 4's
   single-FPGA latencies and Fig. 11's inter-FPGA latency sweep, the
   cells [bench/main.exe fig12], [table4] and [fig11] print.  Every
   cell is pinned to the bit, so a change that moves the modelled
   system has to show its diff here, next to the shape claims the
   tables support. *)

module Sysim = Mlv_sysim.Sysim
module Runtime = Mlv_core.Runtime
module Genset = Mlv_workload.Genset
module Stats = Mlv_util.Stats
module Device = Mlv_fpga.Device
module Config = Mlv_accel.Config
module Resource_model = Mlv_accel.Resource_model
module Perf = Mlv_accel.Perf
module Virtual_block = Mlv_vital.Virtual_block
module Codegen = Mlv_isa.Codegen
module Deepbench = Mlv_workload.Deepbench
module Scale_out = Mlv_core.Scale_out

let registry = lazy (Sysim.build_registry ())

let throughput policy composition =
  let cfg = Sysim.default_config ~policy ~composition in
  (Sysim.run ~registry:(Lazy.force registry) { cfg with Sysim.tasks = 120 })
    .Sysim.throughput_per_s

(* Throughput in tasks/s per set, as [%h] literals: baseline (AS-ISA
   only), same-type restricted, and this work (greedy). *)
let golden =
  [
    ("0x1.03125590176fp+6", "0x1.1f80c7a78f83ep+7", "0x1.4bddeff846488p+7");
    ("0x1.43968f5ae6f95p+5", "0x1.f4748345d2bc8p+5", "0x1.256dd79871b92p+6");
    ("0x1.98d67d7b1cf3bp+2", "0x1.6563edfaa80ep+3", "0x1.580e56f66439dp+4");
    ("0x1.7bbe81693e705p+5", "0x1.53254af50aabfp+6", "0x1.79814e51d982cp+6");
    ("0x1.724e48ec2ae28p+3", "0x1.50b7f0d297691p+4", "0x1.01898551f2b19p+5");
    ("0x1.529c61f746c6p+3", "0x1.41d6379953cfbp+4", "0x1.00b6c538bbd3p+5");
    ("0x1.f7a618edbb904p+3", "0x1.01b47252a0af9p+5", "0x1.483ab10de9854p+5");
    ("0x1.34a0a9b4d4a3dp+3", "0x1.16151d3e8e21p+4", "0x1.b81762a2e19efp+4");
    ("0x1.e5a1cdb785f1ap+4", "0x1.ab943af44b85cp+5", "0x1.e85d4931a5d63p+5");
    ("0x1.2b984033a5dfep+4", "0x1.357e09973d3ffp+5", "0x1.85eacc678a3dap+5");
  ]

let test_fig12 () =
  let cells =
    Array.to_list
      (Array.map
         (fun composition ->
           ( throughput Runtime.baseline composition,
             throughput Runtime.restricted composition,
             throughput Runtime.greedy composition ))
         Genset.table1)
  in
  Alcotest.(check int) "ten sets" (List.length golden) (List.length cells);
  List.iteri
    (fun i ((b, r, g), (wb, wr, wg)) ->
      let cell policy want got =
        Alcotest.(check string)
          (Printf.sprintf "set %d %s (%.1f t/s)" (i + 1) policy got)
          want (Printf.sprintf "%h" got)
      in
      cell "baseline" wb b;
      cell "restricted" wr r;
      cell "greedy" wg g;
      (* the paper's shape claim, set by set *)
      Alcotest.(check bool)
        (Printf.sprintf "set %d: greedy >= restricted >= baseline" (i + 1))
        true
        (g >= r && r >= b))
    (List.combine cells golden);
  (* The mean speedups as [bench/main.exe fig12] prints them (paper:
     2.54x and ~1.16x; the restricted gap is a known difference). *)
  let mean_speedup f =
    Printf.sprintf "%.2fx" (Stats.mean (List.rev_map f cells))
  in
  Alcotest.(check string) "mean speedup vs baseline" "2.56x"
    (mean_speedup (fun (b, _, g) -> g /. b));
  Alcotest.(check string) "mean speedup vs restricted" "1.37x"
    (mean_speedup (fun (_, r, g) -> g /. r))

(* Table 4 as [bench/main.exe table4] computes it: per point and
   device, the baseline instance's latency bare and through
   pattern-aware virtual blocks, in µs.  [None] is the paper's dash:
   the model does not fit the instance. *)
let table4_cell (p : Deepbench.point) (dev : Device.t) =
  let cfg = Resource_model.baseline_config dev in
  if Deepbench.weight_words p > Config.weight_capacity_words cfg then None
  else begin
    let program, _ = Deepbench.program p in
    let base = (Perf.program_latency cfg dev program).Perf.total_us in
    let vbs = ((cfg.Config.tiles + 1) / Virtual_block.engines_per_block dev.Device.kind) + 3 in
    let vital =
      (Perf.program_latency cfg dev
         ~deploy:(Perf.vital_deploy ~virtual_blocks:vbs ~pattern_aware:true)
         program)
        .Perf.total_us
    in
    Some (base, vital)
  end

(* Per point, XCVU37P then XCKU115: (baseline µs, ViTAL µs) as [%h]
   literals. *)
let table4_golden =
  [
    ( "GRU h=512 t=1",
      [
        Some ("0x1.881b4e81b4e8p+2", "0x1.9681b4e81b4e6p+2");
        Some ("0x1.ca3d70a3d70a7p+2", "0x1.dd70a3d70a3d9p+2");
      ] );
    ( "GRU h=1024 t=1500",
      [
        Some ("0x1.47b3ae147b46bp+12", "0x1.5ccbae147bac8p+12");
        Some ("0x1.b834e81b4ffb6p+12", "0x1.d454e81b506b2p+12");
      ] );
    ( "GRU h=1536 t=375",
      [
        Some ("0x1.8400000000624p+10", "0x1.99180000004c5p+10");
        Some ("0x1.1ccaaaaaaab7ep+11", "0x1.2adaaaaaaac7bp+11");
      ] );
    ( "LSTM h=256 t=150",
      [
        Some ("0x1.013ae147ae065p+9", "0x1.15dae147adfd6p+9");
        Some ("0x1.5523d70a3d7bp+9", "0x1.70a3d70a3d6e6p+9");
      ] );
    ( "LSTM h=512 t=25",
      [
        Some ("0x1.798bf258bf216p+6", "0x1.950bf258bf1f7p+6");
        Some ("0x1.f52c5f92c5f2dp+6", "0x1.0ceb851eb84d1p+7");
      ] );
    ( "LSTM h=1024 t=25",
      [
        Some ("0x1.c14b17e4b1786p+6", "0x1.dccb17e4b17dcp+6");
        Some ("0x1.2df92c5f92c18p+7", "0x1.404e81b4e816fp+7");
      ] );
    ( "LSTM h=1536 t=50",
      [
        Some ("0x1.05428f5c28f0bp+8", "0x1.13028f5c28f48p+8");
        None;
      ] );
  ]

let test_table4 () =
  let devices = [ Device.get Device.XCVU37P; Device.get Device.XCKU115 ] in
  Alcotest.(check (list string)) "seven points"
    (List.map fst table4_golden)
    (List.map Deepbench.name Deepbench.table4_points);
  let band = ref (infinity, neg_infinity) in
  List.iter2
    (fun (p : Deepbench.point) (name, row) ->
      List.iter2
        (fun dev want ->
          let what = Printf.sprintf "%s %s" name dev.Device.name in
          match (table4_cell p dev, want) with
          | None, None -> ()
          | Some (base, vital), Some (wb, wv) ->
            Alcotest.(check string) (what ^ " baseline") wb (Printf.sprintf "%h" base);
            Alcotest.(check string) (what ^ " ViTAL") wv (Printf.sprintf "%h" vital);
            let ovh = (vital -. base) /. base in
            band := (Float.min (fst !band) ovh, Float.max (snd !band) ovh)
          | Some _, None -> Alcotest.failf "%s: fits, but the golden is a dash" what
          | None, Some _ -> Alcotest.failf "%s: does not fit" what)
        devices row)
    Deepbench.table4_points table4_golden;
  (* The shape claims [bench/main.exe table4] prints. *)
  Alcotest.(check string) "overhead band" "3.7-8.1%"
    (Printf.sprintf "%.1f-%.1f%%" (100.0 *. fst !band) (100.0 *. snd !band));
  let lstm_1536 = List.nth Deepbench.table4_points 6 in
  Alcotest.(check string) "the dash is LSTM h=1536 t=50" "LSTM h=1536 t=50"
    (Deepbench.name lstm_1536);
  Alcotest.(check bool) "LSTM h=1536 does not fit the XCKU115" true
    (table4_cell lstm_1536 (Device.get Device.XCKU115) = None)

(* Fig. 11 as [bench/main.exe fig11] computes it: µs per timestep of a
   2-FPGA deployment on XCVU37P parts, 50 timesteps. *)
let fig11_added = [ 0.0; 0.2; 0.4; 0.6; 0.8; 1.0; 1.2 ]

let fig11_us_per_step (kind, hidden, tiles) ~reordered added =
  let timesteps = 50 in
  Scale_out.two_fpga_latency_us ~config:(Config.make ~tiles ())
    ~device:(Device.get Device.XCVU37P) ~added_latency_us:added ~reordered kind ~hidden
    ~input:hidden ~timesteps
  /. float_of_int timesteps

(* Per curve: the reordered latency at each added latency in
   [fig11_added], then the no-reorder one at +0.6 µs, as [%h]
   literals. *)
let fig11_golden =
  [
    ( "LSTM h=1024",
      (Codegen.Lstm, 1024, 10),
      [
          "0x1.23accc34afbbcp+2";
          "0x1.23ee556bfb827p+2";
          "0x1.242fdea347491p+2";
          "0x1.247167da930fcp+2";
          "0x1.24b2f111ded66p+2";
          "0x1.24f47a492a9d1p+2";
          "0x1.253603807663cp+2";
      ],
      "0x1.5ec5c13fd0c8dp+2" );
    ( "GRU h=1024",
      (Codegen.Gru, 1024, 10),
      [
          "0x1.d898b40821724p+1";
          "0x1.d9b194f14c8b7p+1";
          "0x1.dfc4335982006p+1";
          "0x1.fd2fb3db1ca13p+1";
          "0x1.17efea4fdc23fp+2";
          "0x1.3147fab229f63p+2";
          "0x1.4abccc5cf3abfp+2";
      ],
      "0x1.629003eea202dp+2" );
    ( "GRU h=2560",
      (Codegen.Gru, 2560, 21),
      [
          "0x1.348c7f8e0e03cp+2";
          "0x1.350f91fca591p+2";
          "0x1.35c4465d2338ap+2";
          "0x1.3688e203068c8p+2";
          "0x1.487b37f65828ap+2";
          "0x1.61d34858a5fc1p+2";
          "0x1.7b2b58baf3ce5p+2";
      ],
      "0x1.ba5e353f7ceb6p+2" );
  ]

let test_fig11 () =
  let curves =
    List.map
      (fun (name, curve, want, want_no_reorder) ->
        let got = List.map (fig11_us_per_step curve ~reordered:true) fig11_added in
        List.iter2
          (fun (added, w) g ->
            Alcotest.(check string) (Printf.sprintf "%s +%.1fus" name added) w
              (Printf.sprintf "%h" g))
          (List.combine fig11_added want) got;
        Alcotest.(check string) (name ^ " no-reorder +0.6us") want_no_reorder
          (Printf.sprintf "%h" (fig11_us_per_step curve ~reordered:false 0.6));
        (name, Array.of_list got))
      fig11_golden
  in
  let curve name = List.assoc name curves in
  (* The first added latency at which the transfer shows: the curve
     sits more than 0.1 µs/step above its +0.0 value. *)
  let exposed_from c =
    let rec go i =
      if i = Array.length c then infinity
      else if c.(i) -. c.(0) > 0.1 then List.nth fig11_added i
      else go (i + 1)
    in
    go 1
  in
  Alcotest.(check bool) "LSTM h=1024 flat (transfer fully hidden)" true
    (exposed_from (curve "LSTM h=1024") = infinity);
  Alcotest.(check (float 0.0)) "GRU h=1024 hidden up to 0.6us" 0.6
    (exposed_from (curve "GRU h=1024"));
  Alcotest.(check (float 0.0)) "GRU h=2560 hidden one step longer, to 0.8us" 0.8
    (exposed_from (curve "GRU h=2560"));
  Alcotest.(check bool) "GRU h=2560 has the highest base latency" true
    (List.for_all (fun (_, c) -> c.(0) <= (curve "GRU h=2560").(0)) curves)

let () =
  Alcotest.run "paper"
    [
      ("fig12", [ Alcotest.test_case "golden" `Quick test_fig12 ]);
      ("table4", [ Alcotest.test_case "golden" `Quick test_table4 ]);
      ("fig11", [ Alcotest.test_case "golden" `Quick test_fig11 ]);
    ]
