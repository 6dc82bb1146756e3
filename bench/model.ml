(* Scale-out service-model microbenchmark: the cold host cost of the
   Fig. 12 open loop's multi-FPGA service times.

   For every (DeepBench point, parts) plan the open loop reaches on
   the 4-FPGA cluster (every extended point at 2, 3 and 4 nodes, with
   the part count [Sysim.scale_out_shape] picks: 30 plans), one pass
   builds the reordered plan and times it at 3 tiles per part on the
   XCVU37P, next to an XCVU37P partner and next to an XCKU115 one.
   The [production] pass runs [Scale_out.plan] and the timing
   interpreter [Perf.program_latency]; the [oracle] pass runs the same
   generator, then the reference reorderer (test/oracle/reorder_oracle.ml)
   and the reference timing interpreter (test/oracle/perf_oracle.ml).
   Both interpreters get the same arguments: a ring-transfer charge on
   every barrier read and a ViTAL deployment, as
   [Scale_out.plan_latency_us] passes them.  Every reordered program
   must be byte-equal and every latency bit-equal across the two, or
   the run exits 1.  Each of two rounds times one oracle pass and, as
   it is much faster, five production passes; each engine reports its
   fastest pass, the least disturbed by other load on the host.

   Emits BENCH_model.json: per engine the fastest pass's wall time and
   its throughput in scheduled instructions per second (the reordered
   programs' instructions, once per pass), plus the
   production-over-oracle speedup.

   Usage: model.exe [--out FILE] [--assert-speedup X]
   `make bench-model-smoke` runs it as part of `make check`. *)

module Program = Mlv_isa.Program
module Instr = Mlv_isa.Instr
module Board = Mlv_fpga.Board
module Device = Mlv_fpga.Device
module Config = Mlv_accel.Config
module Perf = Mlv_accel.Perf
module Scale_out = Mlv_core.Scale_out
module Deepbench = Mlv_workload.Deepbench
module Sysim = Mlv_sysim.Sysim
module Reorder_oracle = Mlv_oracle.Reorder_oracle
module Perf_oracle = Mlv_oracle.Perf_oracle
module Obs = Mlv_obs.Obs

(* The open loop's (point, parts) plans, in point order. *)
let plans =
  List.concat_map
    (fun (pt : Deepbench.point) ->
      List.sort_uniq compare
        (List.map
           (fun nodes ->
             fst (Sysim.scale_out_shape ~hidden:pt.Deepbench.hidden ~nodes ~tiles:3))
           [ 2; 3; 4 ])
      |> List.map (fun parts -> (pt, parts)))
    Deepbench.extended_points

let device = Device.get Device.XCVU37P
let config = Config.make ~tiles:3 ~mem_kind:Config.Bram_uram ()

(* Same device, then the XCKU115 partner of the Fig. 12 cluster. *)
let slowdowns =
  [ 1.0; device.Device.base_freq_mhz /. (Device.get Device.XCKU115).Device.base_freq_mhz ]

(* The interpreters' shared arguments: a barrier read waits for
   (parts-1) slices over the ring; the parts run on ViTAL. *)
let extra ~parts ~sync_base (instr : Instr.t) =
  match instr with
  | Instr.V_rd { addr; len; _ } when addr >= sync_base ->
    Board.ring_transfer_time_us Board.default
      ~bytes:(len / parts * 2 * (parts - 1))
      ~hops:(max 1 (parts / 2)) ~added_latency_us:0.0
  | _ -> 0.0

let deploy =
  Perf.vital_deploy ~virtual_blocks:((config.Config.tiles / 2) + 2) ~pattern_aware:true

(* One pass: per plan, the reordered program and its latencies. *)
let production () =
  List.map
    (fun ((pt : Deepbench.point), parts) ->
      let plan =
        Scale_out.plan ~reordered:true pt.Deepbench.kind ~hidden:pt.Deepbench.hidden
          ~input:pt.Deepbench.hidden ~timesteps:pt.Deepbench.timesteps ~parts
      in
      let sync_base = plan.Scale_out.layout.Scale_out.sync_base in
      let extra_latency_us = extra ~parts ~sync_base in
      ( plan.Scale_out.program,
        List.map
          (fun partner_stretch ->
            (Perf.program_latency config device ~deploy ~partner_stretch ~extra_latency_us
               ~sync_base plan.Scale_out.program)
              .Perf.total_us)
          slowdowns ))
    plans

let oracle () =
  List.map
    (fun ((pt : Deepbench.point), parts) ->
      let program, lay =
        Scale_out.generate pt.Deepbench.kind ~hidden:pt.Deepbench.hidden
          ~input:pt.Deepbench.hidden ~timesteps:pt.Deepbench.timesteps ~parts ~part:0
      in
      let sync_base = lay.Scale_out.sync_base in
      let program = Reorder_oracle.reorder ~sync_base program in
      let extra_latency_us = extra ~parts ~sync_base in
      ( program,
        List.map
          (fun partner_stretch ->
            (Perf_oracle.program_latency config device ~deploy ~partner_stretch
               ~extra_latency_us ~sync_base program)
              .Perf.total_us)
          slowdowns ))
    plans

(* [passes] timed passes: the last one's result and the fastest's
   wall time. *)
let time ~passes pass =
  let result = ref [] and best = ref infinity in
  for _ = 1 to passes do
    let t0 = Unix.gettimeofday () in
    result := pass ();
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  (!result, !best)

let bytes (p : Program.t) = Marshal.to_string p []
let rounds = 2

let () =
  let out = ref "BENCH_model.json" and assert_speedup = ref 0.0 in
  Arg.parse
    [
      ("--out", Arg.Set_string out, "output JSON path (default BENCH_model.json)");
      ( "--assert-speedup",
        Arg.Set_float assert_speedup,
        "exit non-zero unless the production/oracle speedup reaches this" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "scale-out service-model microbenchmark";
  let want = ref [] and got = ref [] in
  let oracle_s = ref infinity and production_s = ref infinity in
  for _ = 1 to rounds do
    let w, o = time ~passes:1 oracle in
    let g, p = time ~passes:5 production in
    want := w;
    got := g;
    oracle_s := Float.min !oracle_s o;
    production_s := Float.min !production_s p
  done;
  let want = !want and got = !got and oracle_s = !oracle_s and production_s = !production_s in
  List.iter2
    (fun ((pt, parts), (wp, wl)) (gp, gl) ->
      let same_latency =
        List.for_all2 (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b) wl gl
      in
      if bytes wp <> bytes gp || not same_latency then begin
        Printf.eprintf "FAIL: %s parts=%d differs from the oracle\n" (Deepbench.name pt) parts;
        exit 1
      end)
    (List.combine plans want) got;
  let instructions =
    List.fold_left (fun acc (p, _) -> acc + Program.length p) 0 got
  in
  let per_s wall = if wall > 0.0 then float_of_int instructions /. wall else 0.0 in
  let speedup = if production_s > 0.0 then oracle_s /. production_s else 0.0 in
  Printf.printf "%d plans, %d instructions, %d rounds; outputs identical\n"
    (List.length plans) instructions rounds;
  List.iter
    (fun (engine, wall) ->
      Printf.printf "%-10s %8.2f ms  %12.0f instrs/s\n" engine (wall *. 1e3) (per_s wall))
    [ ("oracle", oracle_s); ("production", production_s) ];
  Printf.printf "production/oracle: %.1fx\n" speedup;
  let engine wall =
    Obs.Json.Obj
      [ ("wall_s", Obs.Json.Float wall); ("instrs_per_s", Obs.Json.Float (per_s wall)) ]
  in
  let json =
    Obs.Json.Obj
      [
        ("benchmark", Obs.Json.String "service_model");
        ("plans", Obs.Json.Int (List.length plans));
        ("instructions", Obs.Json.Int instructions);
        ("reps", Obs.Json.Int rounds);
        ("oracle", engine oracle_s);
        ("production", engine production_s);
        ("speedup", Obs.Json.Float speedup);
      ]
  in
  let oc = open_out !out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" !out;
  if !assert_speedup > 0.0 && speedup < !assert_speedup then begin
    Printf.eprintf "FAIL: speedup %.2fx below required %.2fx\n" speedup !assert_speedup;
    exit 1
  end
