(* Tests for the fault-injection and recovery layer: the fault-plan
   data type, runtime failure marking and migration, and
   index consistency across fault/restore cycles. *)

module Fault_plan = Mlv_cluster.Fault_plan
module Sim = Mlv_cluster.Sim
module Cluster = Mlv_cluster.Cluster
module Mapdb = Mlv_core.Mapdb
module Runtime = Mlv_core.Runtime
module Framework = Mlv_core.Framework
module Obs = Mlv_obs.Obs

(* ---------------- Fault plans ---------------- *)

let test_plan_parse_roundtrip () =
  let s = "crash@8000:1,restore@20000:1,degrade@12000:0.6" in
  match Fault_plan.of_string s with
  | Error e -> Alcotest.fail e
  | Ok plan ->
    Alcotest.(check int) "three events" 3 (Fault_plan.length plan);
    (* events come back time-sorted *)
    let times = List.map (fun (e : Fault_plan.event) -> e.Fault_plan.at) (Fault_plan.events plan) in
    Alcotest.(check (list (float 1e-9))) "sorted" [ 8000.0; 12000.0; 20000.0 ] times;
    let printed = Fault_plan.to_string plan in
    (match Fault_plan.of_string printed with
    | Error e -> Alcotest.failf "round-trip failed: %s" e
    | Ok plan' ->
      Alcotest.(check string) "round trip" printed (Fault_plan.to_string plan'))

let test_plan_parse_errors () =
  let bad s =
    match Fault_plan.of_string s with
    | Ok _ -> Alcotest.failf "expected parse error for %S" s
    | Error _ -> ()
  in
  bad "crash@x:1";
  bad "explode@100:1";
  bad "crash@100";
  bad "crash@100:1:2";
  bad "degrade@100:-0.5";
  (match Fault_plan.of_string "" with
  | Ok p -> Alcotest.(check bool) "empty string is empty plan" true (Fault_plan.is_empty p)
  | Error e -> Alcotest.fail e);
  match
    Fault_plan.make [ { Fault_plan.at = -1.0; action = Fault_plan.Crash 0 } ]
  with
  | _ -> Alcotest.fail "negative event time should raise"
  | exception Invalid_argument _ -> ()

let test_plan_validate () =
  let plan =
    Fault_plan.make [ { Fault_plan.at = 100.0; action = Fault_plan.Crash 9 } ]
  in
  (match Fault_plan.validate plan ~nodes:4 with
  | Ok () -> Alcotest.fail "crash on node 9 of 4 should not validate"
  | Error _ -> ());
  let ok =
    Fault_plan.make
      [
        { Fault_plan.at = 100.0; action = Fault_plan.Crash 3 };
        { Fault_plan.at = 200.0; action = Fault_plan.Degrade 1.5 };
      ]
  in
  match Fault_plan.validate ok ~nodes:4 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* A crash/restore pair followed by a crash that is never restored. *)
let crash_restore_crash =
  Fault_plan.make
    [
      { Fault_plan.at = 100.0; action = Fault_plan.Crash 0 };
      { Fault_plan.at = 300.0; action = Fault_plan.Restore 0 };
      { Fault_plan.at = 500.0; action = Fault_plan.Crash 1 };
    ]

(* Two crashes whose down times overlap. *)
let overlapping_crashes =
  Fault_plan.make
    [
      { Fault_plan.at = 100.0; action = Fault_plan.Crash 0 };
      { Fault_plan.at = 150.0; action = Fault_plan.Crash 1 };
      { Fault_plan.at = 200.0; action = Fault_plan.Restore 0 };
      { Fault_plan.at = 400.0; action = Fault_plan.Restore 1 };
    ]

let test_plan_downtime () =
  (* [100,300] closed plus [500,600] still open at until=600 *)
  Alcotest.(check (float 1e-9)) "two outages" 300.0
    (Fault_plan.downtime_us crash_restore_crash ~until:600.0);
  (* overlapping crashes are one outage, not two *)
  Alcotest.(check (float 1e-9)) "overlap merged" 300.0
    (Fault_plan.downtime_us overlapping_crashes ~until:1000.0);
  Alcotest.(check (float 1e-9)) "empty plan no downtime" 0.0
    (Fault_plan.downtime_us Fault_plan.empty ~until:1000.0)

let test_plan_outages () =
  let check label plan ~until want =
    Alcotest.(check (list (pair (float 0.0) (float 0.0))))
      (label ^ ": windows") want
      (Fault_plan.outages plan ~until);
    Alcotest.(check (float 0.0))
      (label ^ ": the windows sum to the downtime")
      (List.fold_left (fun acc (t0, t1) -> acc +. (t1 -. t0)) 0.0 want)
      (Fault_plan.downtime_us plan ~until)
  in
  (* events after [until] are not replayed *)
  check "single crash/restore" crash_restore_crash ~until:400.0 [ (100.0, 300.0) ];
  check "open window closed at until" crash_restore_crash ~until:600.0
    [ (100.0, 300.0); (500.0, 600.0) ];
  check "overlapping crashes" overlapping_crashes ~until:1000.0 [ (100.0, 400.0) ];
  check "empty plan" Fault_plan.empty ~until:1000.0 []

let test_plan_schedule_order () =
  let sim = Sim.create () in
  let plan =
    Fault_plan.make
      [
        { Fault_plan.at = 300.0; action = Fault_plan.Restore 1 };
        { Fault_plan.at = 100.0; action = Fault_plan.Crash 1 };
        { Fault_plan.at = 200.0; action = Fault_plan.Degrade 0.5 };
      ]
  in
  let crashes = Obs.Counter.get "fault.crash" in
  let before = Obs.Counter.value crashes in
  let log = ref [] in
  Fault_plan.schedule plan sim
    ~on_crash:(fun n -> log := Printf.sprintf "crash:%d@%.0f" n (Sim.now sim) :: !log)
    ~on_restore:(fun n -> log := Printf.sprintf "restore:%d@%.0f" n (Sim.now sim) :: !log)
    ~on_degrade:(fun us -> log := Printf.sprintf "degrade:%.1f@%.0f" us (Sim.now sim) :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "fired in time order"
    [ "crash:1@100"; "degrade:0.5@200"; "restore:1@300" ]
    (List.rev !log);
  Alcotest.(check int) "fault.crash counted" (before + 1) (Obs.Counter.value crashes)

(* ---------------- Runtime failure handling ---------------- *)

let runtime_fixture () =
  let npu =
    match Framework.build_npu ~tiles:6 () with
    | Ok npu -> npu
    | Error e -> Alcotest.failf "npu build failed: %s" e
  in
  let registry = Mapdb.create () in
  Mapdb.register registry npu.Framework.mapping;
  let cluster = Cluster.create () in
  (Runtime.create ~policy:Runtime.greedy cluster registry, cluster)

let deploy_ok rt =
  match Runtime.deploy rt ~accel:"npu-t6" with
  | Ok d -> d
  | Error e -> Alcotest.failf "deploy failed: %s" e

let test_mark_failed_and_health () =
  let rt, _ = runtime_fixture () in
  let d = deploy_ok rt in
  let node = List.hd (Runtime.nodes_used d) in
  Alcotest.(check bool) "healthy before" true (Runtime.deployment_health rt d = []);
  Runtime.mark_node_failed rt node;
  Alcotest.(check bool) "node failed" true (Runtime.node_failed rt node);
  Alcotest.(check (list int)) "failed list" [ node ] (Runtime.failed_nodes rt);
  Alcotest.(check (list int)) "health names node" [ node ]
    (Runtime.deployment_health rt d);
  Alcotest.(check int) "degraded lists it" 1 (List.length (Runtime.degraded rt));
  Alcotest.(check bool) "still live" true
    (List.memq d (Runtime.deployments rt));
  Alcotest.(check bool) "index consistent" true (Runtime.index_consistent rt);
  (* marking twice is idempotent *)
  Runtime.mark_node_failed rt node;
  Alcotest.(check (list int)) "idempotent" [ node ] (Runtime.failed_nodes rt);
  Runtime.restore_node rt node;
  Alcotest.(check bool) "restored" false (Runtime.node_failed rt node);
  Alcotest.(check bool) "index consistent after restore" true
    (Runtime.index_consistent rt)

let test_migrate () =
  let rt, _ = runtime_fixture () in
  let d = deploy_ok rt in
  let node = List.hd (Runtime.nodes_used d) in
  (* healthy deployment: nothing to move *)
  (match Runtime.migrate rt d with
  | Ok 0 -> ()
  | Ok n -> Alcotest.failf "healthy migrate moved %d" n
  | Error e -> Alcotest.fail e);
  Runtime.mark_node_failed rt node;
  (match Runtime.migrate rt d with
  | Error e -> Alcotest.fail e
  | Ok moved ->
    Alcotest.(check bool) "placements moved" true (moved >= 1);
    Alcotest.(check bool) "off the failed node" false
      (List.mem node (Runtime.nodes_used d));
    Alcotest.(check (list int)) "healthy again" [] (Runtime.deployment_health rt d);
    Alcotest.(check bool) "same handle still live" true
      (List.memq d (Runtime.deployments rt));
    Alcotest.(check bool) "index consistent" true (Runtime.index_consistent rt));
  Runtime.restore_node rt node;
  Runtime.undeploy rt d;
  Alcotest.(check bool) "index consistent at end" true (Runtime.index_consistent rt)

let test_migrate_errors () =
  let rt, cluster = runtime_fixture () in
  let d = deploy_ok rt in
  let original_nodes = Runtime.nodes_used d in
  (* with every node down there is nowhere to go: the deployment must
     survive the failed migration with its placements intact *)
  for n = 0 to Cluster.node_count cluster - 1 do
    Runtime.mark_node_failed rt n
  done;
  (match Runtime.migrate rt d with
  | Ok _ -> Alcotest.fail "migrate with all nodes down should fail"
  | Error _ ->
    Alcotest.(check bool) "still live after failed migrate" true
      (List.memq d (Runtime.deployments rt));
    Alcotest.(check (list int)) "placements restored" original_nodes
      (Runtime.nodes_used d));
  for n = 0 to Cluster.node_count cluster - 1 do
    Runtime.restore_node rt n
  done;
  Runtime.undeploy rt d;
  (* a non-live deployment cannot migrate *)
  match Runtime.migrate rt d with
  | Ok _ -> Alcotest.fail "migrating an undeployed handle should fail"
  | Error _ -> ()

(* The churn invariant under faults: the allocation index stays
   consistent after every crash, failover, migration and restore. *)
let test_index_consistent_through_fault_plan () =
  let rt, cluster = runtime_fixture () in
  let sim = cluster.Cluster.sim in
  let deployed = ref [] in
  for _ = 1 to 3 do
    deployed := deploy_ok rt :: !deployed
  done;
  let check_consistent where =
    if not (Runtime.index_consistent rt) then
      Alcotest.failf "index inconsistent %s" where
  in
  let plan =
    Fault_plan.make
      [
        { Fault_plan.at = 100.0; action = Fault_plan.Crash 0 };
        { Fault_plan.at = 200.0; action = Fault_plan.Crash 1 };
        { Fault_plan.at = 300.0; action = Fault_plan.Restore 0 };
        { Fault_plan.at = 400.0; action = Fault_plan.Restore 1 };
      ]
  in
  Fault_plan.schedule plan sim
    ~on_crash:(fun n ->
      ignore (Runtime.fail_node rt n);
      check_consistent (Printf.sprintf "after crash of node %d" n))
    ~on_restore:(fun n ->
      Runtime.restore_node rt n;
      check_consistent (Printf.sprintf "after restore of node %d" n))
    ~on_degrade:(fun _ -> ());
  Sim.run sim;
  Alcotest.(check (list int)) "all nodes back" [] (Runtime.failed_nodes rt);
  List.iter
    (fun d -> if List.memq d (Runtime.deployments rt) then Runtime.undeploy rt d)
    !deployed;
  check_consistent "after final undeploy"

let () =
  Alcotest.run "faults"
    [
      ( "fault_plan",
        [
          Alcotest.test_case "parse round-trip" `Quick test_plan_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "validate" `Quick test_plan_validate;
          Alcotest.test_case "downtime" `Quick test_plan_downtime;
          Alcotest.test_case "outage windows" `Quick test_plan_outages;
          Alcotest.test_case "schedule order" `Quick test_plan_schedule_order;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "mark failed + health" `Quick test_mark_failed_and_health;
          Alcotest.test_case "migrate" `Quick test_migrate;
          Alcotest.test_case "migrate errors" `Quick test_migrate_errors;
          Alcotest.test_case "index consistent through faults" `Quick
            test_index_consistent_through_fault_plan;
        ] );
    ]
