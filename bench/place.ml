(* Placement-churn microbenchmark: deploy/undeploy/fail/restore churn
   on a synthetic heterogeneous cluster, replayed twice from one seed.
   The [indexed] pass times the loop through [Runtime] as it is.  The
   [naive] pass times, at each deploy, the snapshot-scan search of the
   test-side placement oracle (test/oracle/placement.ml), then advances
   the state with an untimed [Runtime.deploy] and fails unless the two
   placements agree; its wall time is the loop's minus those deploys.
   The naive row therefore leaves out the controller loads and the
   deploy span, which only lowers the speedup.

   Emits BENCH_place.json with deploys/sec and p50/p99 deploy (or
   search) latency (recorded through the Mlv_obs histograms) per
   engine, plus the indexed-over-naive throughput speedup.

   Usage: place.exe [--nodes N] [--ops K] [--seed S] [--out FILE]
                    [--assert-speedup X]
   Defaults model a thousand-node pod; `make bench-place-smoke` runs
   a small fast configuration as part of `make check`. *)

module Device = Mlv_fpga.Device
module Cluster = Mlv_cluster.Cluster
module Runtime = Mlv_core.Runtime
module Framework = Mlv_core.Framework
module Placement = Mlv_oracle.Placement
module Rng = Mlv_util.Rng
module Obs = Mlv_obs.Obs

let accels = [| "npu-t6"; "npu-t10"; "npu-t21" |]

(* 3:1 XCVU37P:XCKU115, the paper cluster's ratio at scale. *)
let pod nodes =
  List.init nodes (fun i -> if i mod 4 = 3 then Device.XCKU115 else Device.XCVU37P)

type outcome = {
  engine : string;
  deploy_ok : int;
  deploy_fail : int;
  undeploys : int;
  failovers : int;
  restores : int;
  wall_s : float;
  deploys_per_s : float;
  p50_us : float;
  p99_us : float;
}

(* One seeded churn.  [deploy rt accel] performs each deploy and tells
   whether it placed; [untimed ()] is the wall time it spent that the
   engine's row leaves out. *)
let run ~engine ~deploy ~untimed ~nodes ~ops ~seed registry =
  let cluster = Cluster.create ~kinds:(pod nodes) () in
  let rt = Runtime.create ~policy:Runtime.greedy cluster registry in
  let rng = Rng.create seed in
  let deploy_ok = ref 0
  and deploy_fail = ref 0
  and undeploys = ref 0
  and failovers = ref 0
  and restores = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to ops do
    let roll = Rng.int rng 100 in
    if roll < 60 then begin
      let accel = accels.(Rng.int rng (Array.length accels)) in
      if deploy rt accel then incr deploy_ok else incr deploy_fail
    end
    else if roll < 90 then (
      match Runtime.deployments rt with
      | [] -> ()
      | l ->
        Runtime.undeploy rt (Rng.choose rng l);
        incr undeploys)
    else if roll < 95 then begin
      let n = Rng.int rng nodes in
      if not (List.mem n (Runtime.failed_nodes rt)) then begin
        ignore (Runtime.fail_node rt n);
        incr failovers
      end
    end
    else
      match Runtime.failed_nodes rt with
      | [] -> ()
      | l ->
        Runtime.restore_node rt (Rng.choose rng l);
        incr restores
  done;
  let wall_s = Unix.gettimeofday () -. t0 -. untimed () in
  let attempts = !deploy_ok + !deploy_fail in
  let hist = Obs.Histogram.get (Printf.sprintf "bench.place.%s.deploy_us" engine) in
  {
    engine;
    deploy_ok = !deploy_ok;
    deploy_fail = !deploy_fail;
    undeploys = !undeploys;
    failovers = !failovers;
    restores = !restores;
    wall_s;
    deploys_per_s = (if wall_s > 0.0 then float_of_int attempts /. wall_s else 0.0);
    p50_us = Obs.Histogram.percentile hist 50.0;
    p99_us = Obs.Histogram.percentile hist 99.0;
  }

let indexed_deploy () =
  let hist = Obs.Histogram.get "bench.place.indexed.deploy_us" in
  fun rt accel ->
    let d0 = Unix.gettimeofday () in
    let ok = Result.is_ok (Runtime.deploy rt ~accel) in
    Obs.Histogram.observe hist ((Unix.gettimeofday () -. d0) *. 1e6);
    ok

(* The oracle's search is timed; the real deploy that advances the
   state, and the comparison, are not. *)
let naive_deploy ~untimed () =
  let hist = Obs.Histogram.get "bench.place.naive.deploy_us" in
  fun rt accel ->
    let s0 = Unix.gettimeofday () in
    let expected = Placement.assign rt ~accel in
    let s1 = Unix.gettimeofday () in
    Obs.Histogram.observe hist ((s1 -. s0) *. 1e6);
    let ok =
      match (Runtime.deploy rt ~accel, expected) with
      | Ok d, Some a
        when Placement.signature (Placement.deployed d) = Placement.signature a ->
        true
      | Error _, None -> false
      | _ ->
        Printf.eprintf "FAIL: oracle and runtime disagree on deploying %s\n" accel;
        exit 1
    in
    untimed := !untimed +. (Unix.gettimeofday () -. s1);
    ok

let outcome_json o =
  Obs.Json.Obj
    [
      ("engine", Obs.Json.String o.engine);
      ("deploy_ok", Obs.Json.Int o.deploy_ok);
      ("deploy_fail", Obs.Json.Int o.deploy_fail);
      ("undeploys", Obs.Json.Int o.undeploys);
      ("failovers", Obs.Json.Int o.failovers);
      ("restores", Obs.Json.Int o.restores);
      ("wall_s", Obs.Json.Float o.wall_s);
      ("deploys_per_s", Obs.Json.Float o.deploys_per_s);
      ("p50_us", Obs.Json.Float o.p50_us);
      ("p99_us", Obs.Json.Float o.p99_us);
    ]

let () =
  let nodes = ref 1000
  and ops = ref 4000
  and seed = ref 1
  and out = ref "BENCH_place.json"
  and assert_speedup = ref 0.0 in
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "cluster size (default 1000)");
      ("--ops", Arg.Set_int ops, "churn operations per engine (default 4000)");
      ("--seed", Arg.Set_int seed, "op-stream seed (default 1)");
      ("--out", Arg.Set_string out, "output JSON path (default BENCH_place.json)");
      ( "--assert-speedup",
        Arg.Set_float assert_speedup,
        "exit non-zero unless indexed/naive throughput ratio reaches this" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "placement-churn microbenchmark";
  Printf.printf "building mapping-result database (%s)...\n%!"
    (String.concat " " (Array.to_list accels));
  let registry = Framework.npu_registry ~tile_counts:[ 6; 10; 21 ] () in
  Printf.printf "churn: %d nodes, %d ops per engine, seed %d\n%!" !nodes !ops !seed;
  let untimed = ref 0.0 in
  let naive =
    run ~engine:"naive" ~deploy:(naive_deploy ~untimed ())
      ~untimed:(fun () -> !untimed)
      ~nodes:!nodes ~ops:!ops ~seed:!seed registry
  in
  let indexed =
    run ~engine:"indexed" ~deploy:(indexed_deploy ())
      ~untimed:(fun () -> 0.0)
      ~nodes:!nodes ~ops:!ops ~seed:!seed registry
  in
  let speedup =
    if naive.deploys_per_s > 0.0 then indexed.deploys_per_s /. naive.deploys_per_s
    else 0.0
  in
  List.iter
    (fun o ->
      Printf.printf
        "%-8s %7d ok / %5d full  %9.1f deploys/s  p50 %8.1fus  p99 %8.1fus  (%.2fs)\n"
        o.engine o.deploy_ok o.deploy_fail o.deploys_per_s o.p50_us o.p99_us o.wall_s)
    [ naive; indexed ];
  Printf.printf "indexed/naive deploy throughput: %.1fx\n" speedup;
  let json =
    Obs.Json.Obj
      [
        ("benchmark", Obs.Json.String "placement_churn");
        ("nodes", Obs.Json.Int !nodes);
        ("ops", Obs.Json.Int !ops);
        ("seed", Obs.Json.Int !seed);
        ("naive", outcome_json naive);
        ("indexed", outcome_json indexed);
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
