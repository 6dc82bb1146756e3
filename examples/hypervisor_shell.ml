(* Hypervisor integration (paper Fig. 7): the system controller
   exposes a command API to the high-level system.  This example
   scripts a session: inspect the cluster, deploy accelerators until
   the cluster saturates, inspect placement, and release everything.

     dune exec examples/hypervisor_shell.exe *)

module Framework = Mlv_core.Framework
module Mapdb = Mlv_core.Mapdb
module Runtime = Mlv_core.Runtime
module Hypervisor = Mlv_core.Hypervisor
module Cluster = Mlv_cluster.Cluster

let () =
  let registry = Mapdb.create () in
  List.iter
    (fun tiles ->
      match Framework.build_npu ~tiles () with
      | Ok npu -> Mapdb.register registry npu.Framework.mapping
      | Error e -> failwith e)
    [ 6; 13; 21 ];
  let cluster = Cluster.create () in
  let runtime = Runtime.create ~policy:Runtime.greedy cluster registry in
  let hv = Hypervisor.create runtime in
  let session =
    [
      "help";
      "list";
      "status";
      "nodes";
      "deploy npu-t21";
      "deploy npu-t13";
      "deploy npu-t6";
      "deploy npu-t6";
      "status";
      "nodes";
      "deployments";
      "deploy npu-t21";
      (* likely refused: cluster is loaded *)
      "undeploy 0";
      "status";
      "deploy npu-t13";
      "deployments";
      "undeploy 1";
      "undeploy 2";
      "undeploy 3";
      "undeploy 4";
      "status";
      (* placement-index health and failover round-trip *)
      "index";
      "deploy npu-t6";
      "fail 0";
      "index";
      "restore 0";
      "rebalance";
      "index";
      "undeploy 5";
      (* fault injection: a scripted crash/restore plan with a ring
         degradation, then live migration of a degraded deployment *)
      "deploy npu-t13";
      "faults";
      "inject crash@100:1,degrade@150:0.6,restore@400:1";
      "faults";
      "deploy npu-t6";
      "migrate 7";
      "inject restore@500:1";
      "undeploy 6";
      "undeploy 7";
      (* serving layer: an SLO admission gate, request routing over
         warm replicas, and an offline autoscaler evaluation *)
      "slo add S 2 5000 1000 4";
      "slo add L 0 20000 500 2";
      "slo";
      "slo check S";
      "slo check S";
      "slo check unknown-class";
      "slo shed 1";
      "slo check L";
      "slo shed off";
      "deploy npu-t6";
      "deploy npu-t6";
      "router";
      "router dispatch npu-t6";
      "router dispatch npu-t6";
      "router dispatch npu-t6";
      "router";
      "autoscale eval npu-t6";
      "autoscale on";
      "autoscale eval npu-t6";
      "router done 8";
      "router done 9";
      "router done 8";
      "autoscale eval npu-t6";
      "autoscale";
      "autoscale off";
      (* force-migrate consolidates a healthy deployment (moved=0
         when it is already optimally placed) *)
      "migrate 8 force";
      "undeploy 8";
      "undeploy 9";
      "undeploy 10";
      (* the observability registry accumulated by the session *)
      "metrics";
      "trace deploy";
      (* per-task lifecycle view: enable tracing so the next fault
         plan leaves marks, then inspect timeline and per-node top *)
      "timeline on";
      "inject crash@600:2,restore@700:2";
      "timeline";
      "top";
      "timeline off";
      (* streaming telemetry: install an alert rule over a live
         series, evaluate it against the session clock, inspect *)
      "alert add outage gt sysim.nodes_down 0 1 1 0";
      "alerts";
      "alerts eval";
      "series";
      "counters reset";
      "trace deploy";
    ]
  in
  List.iter
    (fun cmd ->
      let resp = Hypervisor.handle hv cmd in
      Printf.printf "> %s\n  %s\n" cmd resp)
    session
