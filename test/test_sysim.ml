(* Tests for the system-level simulation: policy comparisons at small
   scale (the full Fig. 12 runs live in the benchmark harness). *)

module Sysim = Mlv_sysim.Sysim
module Runtime = Mlv_core.Runtime
module Genset = Mlv_workload.Genset
module Deepbench = Mlv_workload.Deepbench
module Codegen = Mlv_isa.Codegen
module Scenarios = Mlv_experiments.Scenarios

(* The registry build compiles ten accelerator instances; share it. *)
let registry = lazy (Sysim.build_registry ())

let run ?(tasks = 40) policy set =
  let cfg = Sysim.default_config ~policy ~composition:Genset.table1.(set) in
  Sysim.run ~registry:(Lazy.force registry) { cfg with Sysim.tasks }

let test_instances_registered () =
  let names = Mlv_core.Mapdb.names (Sysim.mapdb (Lazy.force registry)) in
  Alcotest.(check int) "10 instances" 10 (List.length names);
  Alcotest.(check bool) "has t21" true (List.mem "npu-t21" names)

let test_instance_selection () =
  let small = { Deepbench.kind = Codegen.Gru; hidden = 512; timesteps = 1 } in
  let large = { Deepbench.kind = Codegen.Gru; hidden = 2560; timesteps = 100 } in
  let t_small = Sysim.instance_for ~policy:Runtime.greedy small in
  let t_large = Sysim.instance_for ~policy:Runtime.greedy large in
  Alcotest.(check bool) "small gets small" true (t_small <= 8);
  Alcotest.(check bool) "large gets multi-FPGA instance" true (t_large >= 32);
  (* The baseline cannot use instances beyond a single device. *)
  let t_large_base = Sysim.instance_for ~policy:Runtime.baseline large in
  Alcotest.(check int) "baseline capped" 21 t_large_base

let test_all_tasks_complete () =
  List.iter
    (fun policy ->
      let r = run policy 6 in
      Alcotest.(check int) policy.Runtime.policy_name 40 r.Sysim.completed;
      Alcotest.(check bool) "positive throughput" true (r.Sysim.throughput_per_s > 0.0))
    [ Runtime.baseline; Runtime.restricted; Runtime.greedy ]

let test_deterministic () =
  let a = run Runtime.greedy 6 in
  let b = run Runtime.greedy 6 in
  Alcotest.(check (float 1e-9)) "same throughput" a.Sysim.throughput_per_s
    b.Sysim.throughput_per_s;
  Alcotest.(check (float 1e-9)) "same makespan" a.Sysim.makespan_us b.Sysim.makespan_us

let test_slo_misses_grow_with_load () =
  (* A saturated arrival rate misses more SLOs than a relaxed one. *)
  let run_rate interarrival =
    let cfg =
      Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
    in
    Sysim.run ~registry:(Lazy.force registry)
      {
        cfg with
        Sysim.tasks = 40;
        arrival = Genset.Exponential { mean_us = interarrival };
      }
  in
  let tight = run_rate 50.0 in
  let relaxed = run_rate 100_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "tight %d vs relaxed %d misses" tight.Sysim.slo_misses
       relaxed.Sysim.slo_misses)
    true
    (tight.Sysim.slo_misses >= relaxed.Sysim.slo_misses);
  Alcotest.(check int) "no misses unloaded" 0 relaxed.Sysim.slo_misses

let test_greedy_beats_baseline () =
  (* The headline claim at small scale: spatial sharing plus
     multi-FPGA deployment outperforms per-device management. *)
  let g = run Runtime.greedy 6 in
  let b = run Runtime.baseline 6 in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.1f vs baseline %.1f" g.Sysim.throughput_per_s
       b.Sysim.throughput_per_s)
    true
    (g.Sysim.throughput_per_s > 1.5 *. b.Sysim.throughput_per_s)

let test_greedy_beats_restricted () =
  let g = run Runtime.greedy 7 in
  (* L-heavy set: heterogeneity matters most *)
  let r = run Runtime.restricted 7 in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.1f vs restricted %.1f" g.Sysim.throughput_per_s
       r.Sysim.throughput_per_s)
    true
    (g.Sysim.throughput_per_s >= r.Sysim.throughput_per_s)

(* ---------------- service-model regressions ---------------- *)

let test_scale_out_shape () =
  (* regression: when the hidden size does not divide across the
     nodes, parts clamps to 2 AND the per-part config is sized for 2
     parts (it used to be sized for the unclamped count) *)
  Alcotest.(check (pair int int)) "clamped to 2, per-part for 2" (2, 16)
    (Sysim.scale_out_shape ~hidden:2560 ~nodes:3 ~tiles:32);
  Alcotest.(check (pair int int)) "divisible keeps nodes" (4, 8)
    (Sysim.scale_out_shape ~hidden:2560 ~nodes:4 ~tiles:32);
  Alcotest.(check (pair int int)) "two nodes" (2, 16)
    (Sysim.scale_out_shape ~hidden:2560 ~nodes:2 ~tiles:32);
  (* per-part tiles never drop to zero *)
  Alcotest.(check (pair int int)) "tiny config floor" (2, 1)
    (Sysim.scale_out_shape ~hidden:15 ~nodes:2 ~tiles:2)

let test_instance_within () =
  let cands = [ 6; 8; 21 ] in
  (* regression: used to always return the largest candidate because
     the fold result was discarded *)
  Alcotest.(check (option int)) "smallest that covers" (Some 8)
    (Sysim.instance_within ~need:7 ~cap:64 cands);
  Alcotest.(check (option int)) "exact fit" (Some 6)
    (Sysim.instance_within ~need:6 ~cap:64 cands);
  Alcotest.(check (option int)) "oversized demand falls back to cap" (Some 21)
    (Sysim.instance_within ~need:100 ~cap:21 cands);
  Alcotest.(check (option int)) "cap excludes the cover" (Some 8)
    (Sysim.instance_within ~need:7 ~cap:8 cands);
  Alcotest.(check (option int)) "nothing fits the cap" None
    (Sysim.instance_within ~need:7 ~cap:5 cands);
  (* boundary cases for the single-pass rewrite *)
  Alcotest.(check (option int)) "empty candidates" None
    (Sysim.instance_within ~need:1 ~cap:64 []);
  Alcotest.(check (option int)) "need = cap exact" (Some 21)
    (Sysim.instance_within ~need:21 ~cap:21 cands);
  Alcotest.(check (option int)) "cap between candidates, oversized need"
    (Some 8)
    (Sysim.instance_within ~need:100 ~cap:20 cands);
  Alcotest.(check (option int)) "cap below smallest" None
    (Sysim.instance_within ~need:100 ~cap:5 cands);
  Alcotest.(check (option int)) "need below smallest" (Some 6)
    (Sysim.instance_within ~need:1 ~cap:64 cands)

(* ---------------- multi-tenant pins ---------------- *)

(* The MD5 of a result's exact bytes, with the wall clock [loop_wall_s]
   zeroed: every other field takes part. *)
let result_md5 (r : Sysim.result) =
  let scrubbed = { r with Sysim.loop_wall_s = 0.0 } in
  Digest.to_hex (Digest.string (Marshal.to_string scrubbed [ Marshal.No_sharing ]))

let tenant_cfg ~serving =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  {
    cfg with
    Sysim.seed = 5;
    tenants =
      [
        Genset.tenant_load ~tasks:15
          ~arrival:(Genset.Exponential { mean_us = 300.0 })
          "a";
        Genset.tenant_load ~weight:2.0 ~tasks:15
          ~arrival:
            (Genset.Bursty
               {
                 on_us = 2000.0;
                 off_us = 6000.0;
                 on_mean_us = 100.0;
                 off_mean_us = 2000.0;
               })
          "b";
        Genset.tenant_load ~tasks:10
          ~arrival:(Genset.Exponential { mean_us = 500.0 })
          "c";
      ];
    serving;
  }

let tenant_serving =
  Some { Sysim.default_serving with Sysim.tenant_pool = Some (20_000.0, 12) }

let check_tenant_accounting (r : Sysim.result) =
  Alcotest.(check int) "three tenants" 3 (List.length r.Sysim.per_tenant);
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      Alcotest.(check int)
        (t.Sysim.tn_name ^ " accounting closes")
        t.Sysim.tn_arrived
        (t.Sysim.tn_completed + t.Sysim.tn_shed + t.Sysim.tn_rejected))
    r.Sysim.per_tenant;
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 r.Sysim.per_tenant in
  Alcotest.(check int) "tenant completions sum to the run's" r.Sysim.completed
    (sum (fun t -> t.Sysim.tn_completed));
  Alcotest.(check int) "tenant sheds sum to the run's" r.Sysim.shed
    (sum (fun t -> t.Sysim.tn_shed));
  Alcotest.(check int) "tenant rejects sum to the run's" r.Sysim.rejected
    (sum (fun t -> t.Sysim.tn_rejected))

(* Each pin was recorded while the pre-index linear data shapes
   (list flight table, fold-per-pick router, per-completion group
   sweeps) were still selectable inside [Sysim.run], with both shapes
   producing the identical result, so it certifies both.  The open-loop
   pin was re-recorded when the open loop became the dispatch loop's
   FIFO policy: every model field is unchanged, while [batches],
   [scale_ups] (one per task) and [tn_admitted] (the admit-all gate
   passes every arrival) moved from 0. *)
let test_multi_tenant_open_loop_shapes_identical () =
  let r = Sysim.run ~registry:(Lazy.force registry) (tenant_cfg ~serving:None) in
  Alcotest.(check string) "result digest" "9d44cb20b762d1bea10a84825c5688b1"
    (result_md5 r);
  check_tenant_accounting r;
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      Alcotest.(check int) (t.Sysim.tn_name ^ " admitted = arrived") t.Sysim.tn_arrived
        t.Sysim.tn_admitted)
    r.Sysim.per_tenant

let test_multi_tenant_serving_shapes_identical () =
  let r =
    Sysim.run ~registry:(Lazy.force registry) (tenant_cfg ~serving:tenant_serving)
  in
  Alcotest.(check string) "result digest" "27ab819cf4c488feb5c84cc8df574e6f"
    (result_md5 r);
  check_tenant_accounting r

(* Results do not depend on what ran before in the process: an
   open-loop run and a multi-tenant serving run, interleaved twice,
   reproduce their first results byte for byte. *)
let test_results_independent_of_history () =
  let open_loop =
    let cfg =
      Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
    in
    { cfg with Sysim.tasks = 30 }
  in
  let serving = tenant_cfg ~serving:tenant_serving in
  let go cfg = result_md5 (Sysim.run ~registry:(Lazy.force registry) cfg) in
  let a1 = go open_loop in
  let b1 = go serving in
  let a2 = go open_loop in
  let b2 = go serving in
  Alcotest.(check string) "open loop rerun" a1 a2;
  Alcotest.(check string) "serving rerun" b1 b2

(* The service memo's key is complete: over every deployment of every
   accelerator the Fig. 12 sets request, under each of the four
   policies on the paper cluster, a registry shared by all calls
   answers bit for bit what a registry that has computed nothing
   answers.  Each accelerator is deployed on an empty cluster (one
   node, or two for the instances no device holds; whole devices under
   the baseline) and, largest first, onto one cluster that fills up
   (pieces on an XCKU115 beside an XCVU37P).  Each deployment is
   priced under every policy, so the same placements meet both the
   whole-device and the ViTAL model. *)
let test_service_memo_matches_fresh () =
  let module Sizes = Mlv_workload.Sizes in
  let module Cluster = Mlv_cluster.Cluster in
  let shared = Lazy.force registry in
  let db = Sysim.mapdb shared in
  let policies =
    [ Runtime.greedy; Runtime.restricted; Runtime.baseline; Runtime.first_fit ]
  in
  let requested (c : Genset.composition) =
    List.filter_map
      (fun (share, cls) -> if share > 0.0 then Some cls else None)
      [ (c.Genset.s, Sizes.S); (c.Genset.m, Sizes.M); (c.Genset.l, Sizes.L) ]
  in
  let classes =
    List.sort_uniq compare (List.concat_map requested (Array.to_list Genset.table1))
  in
  let points = List.concat_map Sizes.points_of_class classes in
  let cluster () = Cluster.create ~kinds:Cluster.paper_kinds () in
  let ring_us = Mlv_cluster.Network.added_latency_us (cluster ()).Cluster.network in
  let accel ~policy point =
    Mlv_core.Framework.accel_name ~tiles:(Sysim.instance_for ~policy point)
  in
  let heterogeneous = ref 0 and whole = ref 0 and calls = ref 0 in
  let check policy d =
    let kinds =
      List.sort_uniq compare
        (List.map
           (fun (p : Runtime.placement) -> p.Runtime.bitstream.Mlv_vital.Bitstream.device)
           d.Runtime.placements)
    in
    if List.length kinds > 1 then incr heterogeneous;
    if policy.Runtime.whole_device then incr whole;
    let price point pricing added_latency_us =
      let price registry =
        Printf.sprintf "%h"
          (Sysim.service_latency_us registry ~policy:pricing ~added_latency_us point d)
      in
      incr calls;
      Alcotest.(check string)
        (Printf.sprintf "%s on %s deployed %s, priced %s at %g us" (Deepbench.name point)
           d.Runtime.accel policy.Runtime.policy_name pricing.Runtime.policy_name
           added_latency_us)
        (price (Sysim.of_mapdb db)) (price shared)
    in
    List.iter
      (fun point ->
        if accel ~policy point = d.Runtime.accel then
          List.iter
            (fun pricing -> List.iter (price point pricing) [ ring_us; ring_us +. 1.0 ])
            policies)
      points
  in
  List.iter
    (fun policy ->
      let sizes = List.sort_uniq compare (List.map (Sysim.instance_for ~policy) points) in
      let deploy rt tiles =
        match Runtime.deploy rt ~accel:(Mlv_core.Framework.accel_name ~tiles) with
        | Ok d -> check policy d
        | Error _ -> ()
      in
      List.iter (fun tiles -> deploy (Runtime.create ~policy (cluster ()) db) tiles) sizes;
      let filling = Runtime.create ~policy (cluster ()) db in
      List.iter (deploy filling) (List.rev sizes))
    policies;
  Alcotest.(check bool) "heterogeneous multi-node deployments seen" true (!heterogeneous > 0);
  Alcotest.(check bool) "whole-device deployments seen" true (!whole > 0);
  Alcotest.(check bool) "deployments priced" true (!calls > 0)

(* ---------------- fault injection ---------------- *)

module Fault_plan = Mlv_cluster.Fault_plan
module Device = Mlv_fpga.Device

let plan_of_string s =
  match Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.fail e

(* One long-running task on a one-node cluster: deterministic timing
   for crash-interruption tests. *)
let single_node_config ~plan =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:{ Genset.s = 1.0; m = 0.0; l = 0.0 }
  in
  {
    cfg with
    Sysim.tasks = 1;
    arrival = Genset.Exponential { mean_us = 1.0 };
    repeats_per_task = 500;
    cluster_kinds = [ Device.XCVU37P ];
    faults = Some (Sysim.default_faults plan);
  }

let test_crash_retries_once () =
  (* crash mid-service, restore later: the task is retried exactly
     once and still completes *)
  let plan = plan_of_string "crash@2000:0,restore@4000:0" in
  let r = Sysim.run ~registry:(Lazy.force registry) (single_node_config ~plan) in
  Alcotest.(check int) "completed" 1 r.Sysim.completed;
  Alcotest.(check int) "retried exactly once" 1 r.Sysim.retried;
  Alcotest.(check int) "not rejected" 0 r.Sysim.rejected;
  Alcotest.(check int) "none lost" 0 r.Sysim.lost;
  Alcotest.(check bool) "downtime recorded" true (r.Sysim.fault_downtime_us > 0.0)

let test_crash_without_capacity_rejects () =
  (* the only node dies and never comes back: the interrupted task is
     retried, cannot restart, and is rejected — not hung, not lost *)
  let plan = plan_of_string "crash@2000:0" in
  let r = Sysim.run ~registry:(Lazy.force registry) (single_node_config ~plan) in
  Alcotest.(check int) "nothing completes" 0 r.Sysim.completed;
  Alcotest.(check int) "retried once" 1 r.Sysim.retried;
  Alcotest.(check int) "rejected, not hung" 1 r.Sysim.rejected;
  Alcotest.(check int) "none lost" 0 r.Sysim.lost

let test_undeployable_head_rejected () =
  (* regression: an all-L workload on a lone KU115 used to stall the
     queue forever behind a head that could never deploy; now the run
     terminates with every task accounted for *)
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:{ Genset.s = 0.0; m = 0.0; l = 1.0 }
  in
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      { cfg with Sysim.tasks = 5; cluster_kinds = [ Device.XCKU115 ] }
  in
  Alcotest.(check bool) "some rejected" true (r.Sysim.rejected > 0);
  Alcotest.(check int) "all accounted" 5 (r.Sysim.completed + r.Sysim.rejected);
  Alcotest.(check int) "none lost" 0 r.Sysim.lost

(* A lone XCVU37P under greedy: npu-t6 fits twice, npu-t32 and
   npu-t42 never fit.  [replay_tasks] replays [(point, arrival)] in
   order. *)
let small_point = { Deepbench.kind = Codegen.Gru; hidden = 512; timesteps = 1 }
let large_point = { Deepbench.kind = Codegen.Gru; hidden = 2560; timesteps = 100 }

let replay_cfg ?serving tasks =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:{ Genset.s = 1.0; m = 0.0; l = 0.0 }
  in
  {
    cfg with
    Sysim.tasks = List.length tasks;
    cluster_kinds = [ Device.XCVU37P ];
    serving;
    replay =
      Some
        (List.mapi
           (fun task_id (point, arrival_us) ->
             {
               Genset.task_id;
               point;
               model_class = Mlv_workload.Sizes.S;
               arrival_us;
               tenant = "-";
             })
           tasks);
  }

let test_infeasible_head_rejected_at_once () =
  (* The middle task can never deploy: it is rejected on arrival, and
     the task behind it starts on arrival on the node's free half
     instead of waiting for the first task to finish. *)
  let accel point =
    Mlv_core.Framework.accel_name ~tiles:(Sysim.instance_for ~policy:Runtime.greedy point)
  in
  Alcotest.(check string) "small point" "npu-t6" (accel small_point);
  Alcotest.(check bool) "large point" true
    (List.mem (accel large_point) [ "npu-t32"; "npu-t42" ]);
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      (replay_cfg [ (small_point, 0.0); (large_point, 1.0); (small_point, 2.0) ])
  in
  Alcotest.(check int) "rejected" 1 r.Sysim.rejected;
  Alcotest.(check int) "completed" 2 r.Sysim.completed;
  Alcotest.(check (float 0.0)) "nobody waited" 0.0 r.Sysim.mean_wait_us

let test_serving_infeasible_reclaims_nothing () =
  (* Autoscaled serving: a request for an accelerator that can never
     deploy is rejected without tearing down the warm, idle npu-t6
     replica first. *)
  let first =
    Sysim.run ~registry:(Lazy.force registry)
      (replay_cfg ~serving:Sysim.default_serving [ (small_point, 0.0) ])
  in
  Mlv_obs.Obs.reset ();
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      (replay_cfg ~serving:Sysim.default_serving
         [ (small_point, 0.0); (large_point, first.Sysim.makespan_us +. 1.0) ])
  in
  Alcotest.(check int) "completed" 1 r.Sysim.completed;
  Alcotest.(check int) "rejected" 1 r.Sysim.rejected;
  Alcotest.(check int) "nothing reclaimed" 0
    Mlv_obs.Obs.Counter.(value (get "sysim.serving.reclaimed"))

(* One client session sends npu-t6 requests every 10 ms to a static
   serving loop on two XCVU37P nodes: the first deploy lands on node 0
   and becomes the session's sticky replica.  A crash of node 0 kills
   it; the next batch finds its sticky route dead, falls back to the
   router (one more sticky miss) on a replica deployed on node 1, and
   every request still completes. *)
let test_sticky_replica_crash () =
  let cfg plan =
    {
      (replay_cfg
         ~serving:
           {
             Sysim.default_serving with
             Sysim.batch = Mlv_sched.Batcher.config ~max_batch:1 ();
             autoscale = None;
           }
         (List.init 10 (fun i -> (small_point, 10_000.0 *. float_of_int i))))
      with
      Sysim.cluster_kinds = [ Device.XCVU37P; Device.XCVU37P ];
      frontend =
        Some
          {
            Sysim.default_frontend with
            Sysim.sessions = Some (Mlv_serve.Session.config ~idle_timeout_us:1e9 ());
          };
      faults = Option.map Sysim.default_faults plan;
    }
  in
  let go plan = Sysim.run ~registry:(Lazy.force registry) (cfg plan) in
  let calm = go None in
  let hit = go (Some (plan_of_string "crash@45000:0,restore@200000:0")) in
  Alcotest.(check int) "calm: one miss, the first batch" 1 calm.Sysim.sticky_misses;
  Alcotest.(check int) "crash: the dead route is one more miss" 2 hit.Sysim.sticky_misses;
  Alcotest.(check int) "crash: the rest stick again" (calm.Sysim.sticky_hits - 1)
    hit.Sysim.sticky_hits;
  Alcotest.(check int) "crash: every request completes" 10 hit.Sysim.completed;
  Alcotest.(check int) "crash: a second replica" 2 hit.Sysim.scale_ups;
  Alcotest.(check int) "crash: none lost" 0 hit.Sysim.lost

let test_late_crash_does_not_perturb () =
  (* a fault plan firing after the last completion must not change the
     modeled numbers at all *)
  let base = run Runtime.greedy 6 in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6) in
  let plan = plan_of_string "crash@1e9:1" in
  let faulted =
    Sysim.run ~registry:(Lazy.force registry)
      { cfg with Sysim.tasks = 40; faults = Some (Sysim.default_faults plan) }
  in
  Alcotest.(check (float 0.0)) "same makespan" base.Sysim.makespan_us
    faulted.Sysim.makespan_us;
  Alcotest.(check (float 0.0)) "same throughput" base.Sysim.throughput_per_s
    faulted.Sysim.throughput_per_s;
  Alcotest.(check int) "nothing retried" 0 faulted.Sysim.retried

let test_availability_acceptance () =
  (* the PR's acceptance run: default cluster, mid-run crash of a busy
     node with a later restore — every task completes (some retried),
     nothing is lost *)
  let base = run Runtime.greedy 7 in
  let plan = Scenarios.crash_restore_plan base.Sysim.makespan_us in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7) in
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      { cfg with Sysim.tasks = 40; faults = Some (Sysim.default_faults plan) }
  in
  Alcotest.(check int) "all tasks complete" 40 r.Sysim.completed;
  Alcotest.(check bool) "some were retried" true (r.Sysim.retried > 0);
  Alcotest.(check int) "none lost" 0 r.Sysim.lost;
  Alcotest.(check bool) "fault-free tput at least the faulted rate" true
    (r.Sysim.fault_free_throughput_per_s >= r.Sysim.throughput_per_s *. 0.9)

(* ---------------- lifecycle tracing & labeled metrics ---------------- *)

module Obs = Mlv_obs.Obs

(* Runs [cfg] with lifecycle tracing on from a clean registry and
   returns the result and whether the Chrome trace export is valid
   JSON; [Obs.Trace.count] then reads this run's events. *)
let traced_run cfg =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      Obs.Trace.set_enabled true;
      let r = Sysim.run ~registry:(Lazy.force registry) cfg in
      let json_ok =
        Obs.Json.is_valid (Obs.Json.to_string (Obs.Trace.to_chrome_json ()))
      in
      (r, json_ok))

(* test_sched's preemption config (seed 3) plus a fair-share pool: two
   tenants on two XCVU37P nodes, a best-effort tenant whose replicas
   fill the fabric from t=0 and a priority tenant arriving later on
   disjoint groups, so its bootstrap must evict; the pool sheds part of
   the best-effort burst at the gate. *)
let shed_preempt_config () =
  let base =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(2)
  in
  {
    base with
    Sysim.seed = 3;
    cluster_kinds = [ Device.XCVU37P; Device.XCVU37P ];
    tenants =
      [
        Genset.tenant_load ~priority:1 ~tasks:30
          ~arrival:(Genset.Exponential { mean_us = 400.0 })
          "gold";
        Genset.tenant_load ~tasks:30 ~composition:Genset.table1.(1)
          ~arrival:(Genset.Exponential { mean_us = 20.0 })
          "bulk";
      ];
    serving =
      Some
        {
          Sysim.default_serving with
          Sysim.batch = Mlv_sched.Batcher.config ~max_batch:4 ~max_linger_us:100.0 ();
          autoscale = None;
          tenant_pool = Some (20_000.0, 8);
        };
  }

let test_crash_hits_two_node_flight () =
  (* One L task (seed 1 draws npu-t32) on two XCVU37P nodes: no single
     device holds it, so its deployment spans both.  A crash of either
     node mid-service must interrupt it exactly once — not only a
     crash of the node its first placement sits on — and after the
     restore it redeploys and completes. *)
  let kinds = [ Device.XCVU37P; Device.XCVU37P ] in
  let cfg =
    {
      (Sysim.default_config ~policy:Runtime.greedy
         ~composition:{ Genset.s = 0.0; m = 0.0; l = 1.0 })
      with
      Sysim.tasks = 1;
      seed = 1;
      repeats_per_task = 500;
      cluster_kinds = kinds;
    }
  in
  List.iter
    (fun node ->
      let plan =
        plan_of_string (Printf.sprintf "crash@100000:%d,restore@150000:%d" node node)
      in
      let r, _ =
        traced_run { cfg with Sysim.faults = Some (Sysim.default_faults plan) }
      in
      let name s = Printf.sprintf "crash of node %d: %s" node s in
      let phase p =
        List.filter (fun e -> e.Obs.Trace.phase = p) (Obs.Trace.events ())
      in
      (match phase Obs.Trace.Deploy with
      | first :: _ ->
        (* the first deploy on an empty cluster: a fresh runtime over
           the same kinds places it identically *)
        let rt =
          Runtime.create ~policy:Runtime.greedy
            (Mlv_cluster.Cluster.create ~kinds ())
            (Sysim.mapdb (Lazy.force registry))
        in
        (match Runtime.deploy rt ~accel:first.Obs.Trace.label with
        | Ok d ->
          Alcotest.(check (list int)) (name "deployment spans both nodes") [ 0; 1 ]
            (Runtime.nodes_used d)
        | Error e -> Alcotest.fail e)
      | [] -> Alcotest.fail (name "no deploy traced"));
      Alcotest.(check int) (name "interrupted once") 1
        (Obs.Trace.count Obs.Trace.Crash_interrupt);
      Alcotest.(check int) (name "retried once") 1 r.Sysim.retried;
      Alcotest.(check int) (name "completed") 1 r.Sysim.completed;
      Alcotest.(check int) (name "not rejected") 0 r.Sysim.rejected;
      Alcotest.(check int) (name "none lost") 0 r.Sysim.lost;
      match phase Obs.Trace.Complete with
      | [ c ] ->
        Alcotest.(check bool) (name "completes after the restore") true
          (c.Obs.Trace.at_sim_us > 150_000.0)
      | _ -> Alcotest.fail (name "expected one completion"))
    [ 0; 1 ]

let test_trace_closed_accounting () =
  (* Every lifecycle count must close against the run's own accounting,
     and the trace export must be valid JSON, on three inputs. *)
  let count = Obs.Trace.count in
  (* 1. A faulted set-8 open loop: the crash-requeue path. *)
  let base = run Runtime.greedy 7 in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7) in
  let r, json_ok =
    traced_run
      {
        cfg with
        Sysim.tasks = 40;
        faults =
          Some (Sysim.default_faults (Scenarios.crash_restore_plan base.Sysim.makespan_us));
      }
  in
  Alcotest.(check int) "arrive events = tasks" 40 (count Obs.Trace.Arrive);
  Alcotest.(check int) "queue events = tasks" 40 (count Obs.Trace.Queue);
  Alcotest.(check int) "complete events = completed" r.Sysim.completed
    (count Obs.Trace.Complete);
  Alcotest.(check int) "reject events = rejected" r.Sysim.rejected
    (count Obs.Trace.Reject);
  Alcotest.(check int) "retry events = retried" r.Sysim.retried
    (count Obs.Trace.Retry);
  Alcotest.(check bool) "crash interrupted in-flight work" true
    (count Obs.Trace.Crash_interrupt > 0);
  Alcotest.(check int) "deploy events = service events" (count Obs.Trace.Deploy)
    (count Obs.Trace.Service);
  Alcotest.(check int) "fault marks on the timeline" 2 (count Obs.Trace.Mark);
  Alcotest.(check int) "run accounting closes" 40
    (r.Sysim.completed + r.Sysim.rejected + r.Sysim.lost);
  Alcotest.(check int) "nothing lost" 0 r.Sysim.lost;
  Alcotest.(check bool) "trace JSON valid" true json_ok;
  (* 2. Set 7, 30 tasks, node 1 crashed at 0.3 and restored at 0.6 of
     the fault-free makespan: zero lost tasks under a single crash. *)
  let tasks = 30 in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6) in
  let cfg = { cfg with Sysim.tasks } in
  let base = Sysim.run ~registry:(Lazy.force registry) cfg in
  let r, json_ok =
    traced_run
      {
        cfg with
        Sysim.faults =
          Some (Sysim.default_faults (Scenarios.crash_restore_plan base.Sysim.makespan_us));
      }
  in
  Alcotest.(check int) "single crash: nothing lost" 0 r.Sysim.lost;
  Alcotest.(check int) "single crash: completed + rejected = tasks" tasks
    (r.Sysim.completed + r.Sysim.rejected);
  Alcotest.(check int) "single crash: arrive events = tasks" tasks
    (count Obs.Trace.Arrive);
  Alcotest.(check int) "single crash: complete events = completed" r.Sysim.completed
    (count Obs.Trace.Complete);
  Alcotest.(check int) "single crash: reject events = rejected" r.Sysim.rejected
    (count Obs.Trace.Reject);
  Alcotest.(check int) "single crash: retry events = retried" r.Sysim.retried
    (count Obs.Trace.Retry);
  Alcotest.(check bool) "single crash: trace JSON valid" true json_ok;
  (* 3. A serving run that both sheds at the gate and preempts
     in-flight batches. *)
  let cfg = shed_preempt_config () in
  let tasks = 60 (* two tenants x 30 *) in
  let r, json_ok = traced_run cfg in
  Alcotest.(check bool) "serving: the run sheds" true (r.Sysim.shed > 0);
  Alcotest.(check bool) "serving: the run preempts" true (r.Sysim.preempted > 0);
  Alcotest.(check int) "serving: arrive events = tasks" tasks (count Obs.Trace.Arrive);
  Alcotest.(check int) "serving: shed events = shed" r.Sysim.shed
    (count Obs.Trace.Shed);
  Alcotest.(check int) "serving: queue events = tasks - shed" (tasks - r.Sysim.shed)
    (count Obs.Trace.Queue);
  Alcotest.(check int) "serving: complete events = completed" r.Sysim.completed
    (count Obs.Trace.Complete);
  Alcotest.(check int) "serving: reject events = rejected" r.Sysim.rejected
    (count Obs.Trace.Reject);
  Alcotest.(check int) "serving: deploy events = completed + preempted"
    (r.Sysim.completed + r.Sysim.preempted)
    (count Obs.Trace.Deploy);
  Alcotest.(check int) "serving: service events = completed + preempted"
    (r.Sysim.completed + r.Sysim.preempted)
    (count Obs.Trace.Service);
  Alcotest.(check int) "serving: nothing lost" 0 r.Sysim.lost;
  Alcotest.(check bool) "serving: trace JSON valid" true json_ok;
  (* 4. The same two-tenant serving run through a crash of node 1 at
     0.3 and its restore at 0.6 of the fault-free makespan: the
     interrupted batches retry, and every tenant's accounting closes. *)
  let base = Sysim.run ~registry:(Lazy.force registry) cfg in
  let r, json_ok =
    traced_run
      {
        cfg with
        Sysim.faults =
          Some (Sysim.default_faults (Scenarios.crash_restore_plan base.Sysim.makespan_us));
      }
  in
  Alcotest.(check bool) "serving crash: work was interrupted" true
    (count Obs.Trace.Crash_interrupt > 0);
  Alcotest.(check bool) "serving crash: some retried" true (r.Sysim.retried > 0);
  Alcotest.(check int) "serving crash: retry events = retried" r.Sysim.retried
    (count Obs.Trace.Retry);
  Alcotest.(check int) "serving crash: complete events = completed" r.Sysim.completed
    (count Obs.Trace.Complete);
  Alcotest.(check int) "serving crash: reject events = rejected" r.Sysim.rejected
    (count Obs.Trace.Reject);
  Alcotest.(check int) "serving crash: shed events = shed" r.Sysim.shed
    (count Obs.Trace.Shed);
  Alcotest.(check int) "serving crash: deploy events = completed + preempted + interrupted"
    (r.Sysim.completed + r.Sysim.preempted + count Obs.Trace.Crash_interrupt)
    (count Obs.Trace.Deploy);
  Alcotest.(check int) "serving crash: run accounting closes" tasks
    (r.Sysim.completed + r.Sysim.rejected + r.Sysim.shed + r.Sysim.preempted);
  Alcotest.(check int) "serving crash: nothing lost" 0 r.Sysim.lost;
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      Alcotest.(check int)
        ("serving crash: tenant " ^ t.Sysim.tn_name ^ " closes")
        t.Sysim.tn_arrived
        (t.Sysim.tn_completed + t.Sysim.tn_shed + t.Sysim.tn_rejected
       + t.Sysim.tn_preempted_lost))
    r.Sysim.per_tenant;
  Alcotest.(check bool) "serving crash: trace JSON valid" true json_ok

let test_labeled_metrics_deterministic () =
  (* two identical runs must produce byte-identical sysim counter and
     histogram series (names, labels, values) — sim-clock-derived
     metrics cannot depend on wall time *)
  let snapshot () =
    Obs.reset ();
    ignore (run Runtime.greedy 7);
    let prefixed n = String.length n >= 6 && String.sub n 0 6 = "sysim." in
    let counters = List.filter (fun (n, _) -> prefixed n) (Obs.counters ()) in
    let hists =
      Obs.histograms ()
      |> List.filter (fun (n, _) -> prefixed n)
      |> List.map (fun (n, h) -> (n, (Obs.Histogram.count h, Obs.Histogram.sum h)))
    in
    (counters, hists)
  in
  let ca, ha = snapshot () in
  let cb, hb = snapshot () in
  Alcotest.(check (list (pair string int))) "counter series identical" ca cb;
  Alcotest.(check (list (pair string (pair int (float 1e-6)))))
    "histogram series identical" ha hb;
  Alcotest.(check bool) "labeled series present" true
    (List.exists (fun (n, _) -> String.contains n '{') ca
    && List.exists (fun (n, _) -> String.contains n '{') ha)

(* ---------------- run metrics and trace pins ---------------- *)

module Series = Mlv_obs.Series
module Alert = Mlv_obs.Alert

(* The MD5 of everything a run leaves in the observability layer: the
   counters, every histogram's count (plus sum/min/max except for the
   wall-clock [span.*.wall_us] ones), the lifecycle trace and the
   telemetry series.  Taken on one run after a reset, with the registry
   built first so its compile spans stay out.  The registry's service
   memo emits nothing, so the run leaves the same whether an earlier run
   warmed the memo or not.  Metrics the run leaves at zero are
   indistinguishable from ones an earlier test registered, so only
   non-zero ones take part. *)
let run_obs_md5 cfg =
  let registry = Lazy.force registry in
  Obs.reset ();
  Series.remove_all ();
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      Obs.Trace.set_enabled true;
      ignore (Sysim.run ~registry cfg));
  let counters = List.filter (fun (_, v) -> v <> 0) (Obs.counters ()) in
  let wall n =
    String.length n > 13
    && String.sub n 0 5 = "span."
    && String.sub n (String.length n - 8) 8 = ".wall_us"
  in
  let hists =
    List.filter_map
      (fun (n, h) ->
        let c = Obs.Histogram.count h in
        if c = 0 then None
        else if wall n then Some (n, c, 0.0, 0.0, 0.0)
        else
          Some (n, c, Obs.Histogram.sum h, Obs.Histogram.min h, Obs.Histogram.max h))
      (Obs.histograms ())
  in
  let series = Obs.Json.to_string (Series.registry_json ()) in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (counters, hists, Obs.Trace.events (), series)
          [ Marshal.No_sharing ]))

let pin_open_cfg () =
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6) in
  { cfg with Sysim.tasks = 40 }

let pin_rule s =
  match Alert.of_string s with Ok rules -> rules | Error e -> failwith e

let pin_faulted_cfg () =
  let cfg = pin_open_cfg () in
  let base = Sysim.run ~registry:(Lazy.force registry) cfg in
  {
    cfg with
    Sysim.faults =
      Some (Sysim.default_faults (Scenarios.crash_restore_plan base.Sysim.makespan_us));
    telemetry =
      Some
        {
          Sysim.scrape_interval_us = 1000.0;
          rules = pin_rule "outage gt sysim.nodes_down 0 1 1 0";
        };
  }

let pin_serving_cfg () =
  let cfg = tenant_cfg ~serving:None in
  {
    cfg with
    Sysim.tenants =
      List.map
        (fun (l : Genset.tenant_load) ->
          if l.Genset.tl_name = "a" then { l with Genset.tl_priority = 1 } else l)
        cfg.Sysim.tenants;
    serving =
      Some
        {
          Sysim.default_serving with
          Sysim.tenant_pool = Some (12_000.0, 8);
          defrag = Some (Mlv_core.Defrag.config ~frag_threshold:0.05 ~interval_us:500.0 ());
        };
    frontend =
      Some
        {
          Sysim.sessions = Some (Mlv_serve.Session.config ~idle_timeout_us:2_000.0 ());
          mapping_cache = Some (4, 50.0);
          predict = Some Mlv_sched.Autoscaler.default_predict;
        };
    telemetry =
      Some
        {
          Sysim.scrape_interval_us = 1000.0;
          rules =
            pin_rule
              "a-burn burn sysim.tenant.slo_missed.rate{tenant=a} \
               sysim.tenant.completed.rate{tenant=a} 0.9 2 6 2 1 0";
        };
  }

(* The every-feature serving run through a crash of node 1 at 0.3 and
   its restore at 0.6 of its fault-free makespan, with the outage
   alert beside the burn-rate one. *)
let pin_serving_faulted_cfg () =
  let cfg = pin_serving_cfg () in
  let base = Sysim.run ~registry:(Lazy.force registry) cfg in
  {
    cfg with
    Sysim.faults =
      Some (Sysim.default_faults (Scenarios.crash_restore_plan base.Sysim.makespan_us));
    telemetry =
      Option.map
        (fun (t : Sysim.telemetry) ->
          {
            t with
            Sysim.rules = t.Sysim.rules @ pin_rule "outage gt sysim.nodes_down 0 1 1 0";
          })
        cfg.Sysim.telemetry;
  }

(* A run stamps its lifecycle events with its own sim clock from the
   first arrival to the last completion, preemptions included. *)
let test_trace_clock_owned_by_run () =
  let r, _ = traced_run (pin_serving_cfg ()) in
  Alcotest.(check bool) "the run preempts" true (r.Sysim.preemptions > 0);
  let evs = Obs.Trace.events () in
  Alcotest.(check int) "the ring kept every event" (Obs.Trace.recorded ())
    (List.length evs);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Obs.Trace.seq < b.Obs.Trace.seq
      && a.Obs.Trace.at_sim_us <= b.Obs.Trace.at_sim_us
      && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "stamps never decrease in seq order" true (monotone evs);
  let last_complete =
    List.fold_left
      (fun acc e ->
        if e.Obs.Trace.phase = Obs.Trace.Complete then e.Obs.Trace.at_sim_us else acc)
      Float.nan evs
  in
  Alcotest.(check (float 0.0)) "last Complete stamp is the makespan"
    r.Sysim.makespan_us last_complete

(* Every deploy span of a preempting run comes from the run's own
   runtime: deciding whether an eviction can help deploys nothing, so
   no two spans share a deployment id. *)
let test_deploy_spans_own_ids () =
  let r, _ = traced_run (pin_serving_cfg ()) in
  Alcotest.(check bool) "the run preempts" true (r.Sysim.preemptions > 0);
  Alcotest.(check int) "no span dropped" 0 (Obs.dropped_spans ());
  let ids =
    List.filter_map
      (fun (sp : Obs.span_record) ->
        if sp.Obs.name = "deploy" then List.assoc_opt "deployment" sp.Obs.args else None)
      (Obs.spans ())
  in
  Alcotest.(check bool) "some deploys" true (ids <> []);
  Alcotest.(check int) "distinct deployment ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

(* Any change to what a run registers, counts, traces or samples moves
   these.  Re-recorded when the open loop became the dispatch loop's
   FIFO policy: the lifecycle traces and the series values are
   unchanged, while the open runs count half the refused deploys
   ([runtime.deploy.fail]), gain the dispatch counters
   ([sysim.serving.batches], [sysim.serving.scale_up]) and lose the
   [sysim.task_sojourn_us{kind,node}] histograms, and every telemetry
   run publishes the same series.  Re-recorded again for the two
   serving runs when the mirrored counters came to be published from
   the run's tallies: [sysim.serving.batches] reads the result's 20
   where it read 24 (a dispatch that bootstrapped a replica counted its
   batch twice, and the batches drained at the end not at all);
   nothing else moved. *)
let test_run_obs_pinned () =
  List.iter
    (fun (label, cfg, want) ->
      Alcotest.(check string) label want (run_obs_md5 (cfg ())))
    [
      ("set-7 open loop", pin_open_cfg, "7b537fe250eb94317518273d2fef7cba");
      ("open loop, crash/restore, telemetry", pin_faulted_cfg,
        "ba38bd47152bafc4e17521cdd66f9b80");
      ("multi-tenant serving, every feature", pin_serving_cfg,
        "36d1f4ddec800b6c12b951639006d204");
      ("multi-tenant serving, every feature, crash/restore", pin_serving_faulted_cfg,
        "eae94006310ef2c2bc569b38a21a1a3c");
    ]

(* A run whose idle replicas are moved and then serve again: set 9
   (table index 8), 200 tasks in bursts 20 ms apart, on eight nodes
   (3:1 XCVU37P:XCKU115) with batches of 4, the default autoscaler and
   the defragmenter.  Defrag passes move idle replicas (three moves);
   two of them serve again from placements on another node or device
   kind, one of them with another service time.  The same run with a
   degrade fault halfway through its makespan changes the network
   delay under every replica that serves after it. *)
let moved_replicas_cfg () =
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(8) in
  {
    cfg with
    Sysim.tasks = 200;
    seed = 1;
    cluster_kinds =
      List.init 8 (fun i -> if i land 3 = 3 then Device.XCKU115 else Device.XCVU37P);
    arrival =
      Genset.Bursty
        { on_us = 3000.0; off_us = 20_000.0; on_mean_us = 100.0; off_mean_us = 8000.0 };
    serving =
      Some
        {
          Sysim.default_serving with
          Sysim.batch = Mlv_sched.Batcher.config ~max_batch:4 ();
          defrag =
            Some (Mlv_core.Defrag.config ~frag_threshold:0.05 ~interval_us:500.0 ());
        };
  }

let degraded_cfg () =
  let cfg = moved_replicas_cfg () in
  let base = Sysim.run ~registry:(Lazy.force registry) cfg in
  {
    cfg with
    Sysim.faults =
      Some
        (Sysim.default_faults
           (Fault_plan.make
              [
                {
                  Fault_plan.at = 0.5 *. base.Sysim.makespan_us;
                  action = Fault_plan.Degrade 5.0;
                };
              ]));
  }

(* A moved replica serves again from another node or device kind, and
   under a degrade fault with another network delay: a completion must
   count on the node its batch started on, and a batch's service times
   must follow the delay.  These runs pin the results and the per-node
   completion counters, and check each [sysim.tasks.completed{node}]
   against the Complete events the trace holds for that node. *)
let test_moved_replicas_serve_again () =
  let result_md5 r =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string { r with Sysim.loop_wall_s = 0.0 } [ Marshal.No_sharing ]))
  in
  List.iter
    (fun (label, cfg, want_md5, want_nodes) ->
      let r, _ = traced_run (cfg ()) in
      Alcotest.(check bool)
        (label ^ ": idle replicas moved")
        true (r.Sysim.defrag_moves > 0);
      Alcotest.(check string) (label ^ ": result") want_md5 (result_md5 r);
      let by_node = Hashtbl.create 8 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          match (e.Obs.Trace.phase, e.Obs.Trace.node) with
          | Obs.Trace.Complete, Some n ->
            Hashtbl.replace by_node n
              (1 + Option.value (Hashtbl.find_opt by_node n) ~default:0)
          | _ -> ())
        (Obs.Trace.events ());
      let from_trace =
        List.sort compare (Hashtbl.fold (fun n c acc -> (n, c) :: acc) by_node [])
      in
      let from_counters =
        List.filter_map
          (fun (_, labels, v) ->
            match List.assoc_opt "node" labels with
            | Some n when v > 0 -> Some (int_of_string n, v)
            | _ -> None)
          (Obs.counters_with_base "sysim.tasks.completed")
        |> List.sort compare
      in
      let nodes = Alcotest.(list (pair int int)) in
      Alcotest.check nodes (label ^ ": counters = trace Complete events") from_trace
        from_counters;
      Alcotest.check nodes (label ^ ": completions per node") want_nodes from_counters)
    [
      ( "moved replicas",
        moved_replicas_cfg,
        "f0c9c2564ed85700e8485d42d536a68e",
        [ (0, 49); (1, 58); (2, 29); (3, 20); (4, 23); (5, 3); (6, 6); (7, 12) ] );
      ( "moved replicas, degrade",
        degraded_cfg,
        "1e436d918eae79bf1fafd40df55d427e",
        [ (0, 43); (1, 62); (2, 31); (3, 20); (4, 23); (5, 3); (6, 6); (7, 12) ] );
    ]

(* The static-serving run whose dispatches bootstrap replicas: set 7,
   200 tasks, batches of up to 4, no autoscaler. *)
let static_serving_cfg () =
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6) in
  {
    cfg with
    Sysim.tasks = 200;
    serving =
      Some
        {
          Sysim.default_serving with
          Sysim.batch = Mlv_sched.Batcher.config ~max_batch:4 ();
          autoscale = None;
        };
  }

(* Every counter that mirrors a result field reads that field after a
   run from a reset registry.  The always-published ones are registered
   even at zero; the scaling, preemption and loss ones only when the
   run counted one. *)
let test_mirrored_counters () =
  List.iter
    (fun (label, cfg) ->
      let cfg = cfg () in
      Obs.reset ();
      let r = Sysim.run ~registry:(Lazy.force registry) cfg in
      let counters = Obs.counters () in
      let check ?(always = true) name want =
        let got = List.assoc_opt name counters in
        let got = if always then got else Some (Option.value got ~default:0) in
        Alcotest.(check (option int)) (label ^ ": " ^ name) (Some want) got
      in
      check "sysim.tasks.arrived"
        (r.Sysim.completed + r.Sysim.rejected + r.Sysim.shed + r.Sysim.preempted
       + r.Sysim.lost);
      check "sysim.tasks.completed" r.Sysim.completed;
      check "sysim.tasks.rejected" r.Sysim.rejected;
      check "sysim.tasks.retried" r.Sysim.retried;
      check "sysim.slo_misses" r.Sysim.slo_misses;
      check "sysim.serving.batches" r.Sysim.batches;
      check "sysim.serving.shed" r.Sysim.shed;
      check ~always:false "sysim.tasks.lost" r.Sysim.lost;
      check ~always:false "sysim.serving.scale_up" r.Sysim.scale_ups;
      check ~always:false "sysim.serving.scale_down" r.Sysim.scale_downs;
      check ~always:false "sysim.serving.preempted" r.Sysim.preempted;
      check ~always:false "sysim.serving.preemptions" r.Sysim.preemptions;
      List.iter
        (fun (t : Sysim.tenant_stats) ->
          let tenant = "{tenant=" ^ t.Sysim.tn_name ^ "}" in
          check ("sysim.tenant.completed" ^ tenant) t.Sysim.tn_completed;
          check ("sysim.tenant.shed" ^ tenant) t.Sysim.tn_shed)
        r.Sysim.per_tenant)
    [
      ("set-7 open loop", pin_open_cfg);
      ("open loop, crash/restore, telemetry", pin_faulted_cfg);
      ("multi-tenant serving, every feature", pin_serving_cfg);
      ("multi-tenant serving, every feature, crash/restore", pin_serving_faulted_cfg);
      ("static serving, batches of 4", static_serving_cfg);
    ]

let test_wait_reasonable () =
  let r = run ~tasks:20 Runtime.greedy 0 in
  (* an all-S set at this arrival rate should barely queue *)
  Alcotest.(check bool) "waits bounded" true (r.Sysim.mean_wait_us < r.Sysim.makespan_us);
  Alcotest.(check bool) "service positive" true (r.Sysim.mean_service_us > 0.0);
  Alcotest.(check bool) "p95 >= mean" true (r.Sysim.p95_latency_us >= r.Sysim.mean_latency_us *. 0.5);
  Alcotest.(check int) "latency per task" r.Sysim.completed (List.length r.Sysim.latencies_us);
  Alcotest.(check bool) "slo misses bounded" true
    (r.Sysim.slo_misses >= 0 && r.Sysim.slo_misses <= r.Sysim.completed)

(* Minor words and direct major words ([major - promoted]: arrays too
   large for the minor heap) of [Sysim.run cfg], measured on the
   second of two identical runs on one registry, so its service memo
   is warm and the count covers the loop alone.
   [Gc.minor_words] is exact. *)
let run_allocation cfg =
  ignore (Sysim.run ~registry:(Lazy.force registry) cfg);
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let major_before = direct_major () in
  let before = Gc.minor_words () in
  let r = Sysim.run ~registry:(Lazy.force registry) cfg in
  let mwords = (Gc.minor_words () -. before) /. 1e6 in
  (r, mwords, (direct_major () -. major_before) /. 1e6)

(* One serving run's allocation: 200 tasks of set 8 under the default
   serving loop.  0.878 M minor words since the loop resolves names
   once per run (batcher slots, router and gate handles, a point's
   accelerator and group) and the autoscaler tick reads its groups'
   idle lists; 0.882 M since arrivals stream into the
   event heap one at a time (0.889 M while every arrival was queued up
   front); 0.889 M since a batch start scans its deployment's
   placements once for all its tasks (0.891 M before, and
   1.81 M when the previous bound was set); 2.28 M before the
   autoscaler tick stopped allocating, arrivals shared one handler and
   a batch's start and completion kept their state on its tasks and
   replica; 2.45 M while each batch sorted its node list for its dims and
   each replica cached its own labeled handles; 2.85 M while every
   refused deploy formatted its message with [sprintf] (~7,100
   refusals a run: the loop retries a full cluster); 4.29 M before the
   heap-indexed loop.  Direct major allocation moves by a few percent
   with GC timing, but read 2.19-2.27 M words while every scale event
   allocated two fresh 601-bucket windows, against -0.01 to 0.05 M
   since; the 0.5 M bound sits far from both.

   The same for a [serve_steady]-shaped run (perfbench): three Poisson
   tenants of S models (40/40/20 of 2,000 tasks, 250 us mean gap) on
   64 nodes, batches of 4 lingering 50 us and an autoscaler ticking
   every 250 us.  0.515 M minor words since names resolve once per
   run; 0.566 M since arrivals stream (0.582 M
   before; 0.596 M before the one scan per batch start); 0.896 M
   before the changes above.  Each bound is its
   reading plus ~7%. *)
let test_serving_run_allocation () =
  let gate label cfg ~tasks ~bound =
    let r, mwords, major_mwords = run_allocation cfg in
    Alcotest.(check int) (label ^ ": all complete") tasks r.Sysim.completed;
    if mwords > bound then
      Alcotest.failf "%s: one serving run allocated %.3f M minor words (bound %g)" label
        mwords bound;
    if major_mwords > 0.5 then
      Alcotest.failf
        "%s: one serving run allocated %.3f M words directly in the major heap (bound \
         0.5)"
        label major_mwords
  in
  let set8 =
    {
      (Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7)) with
      Sysim.tasks = 200;
      arrival = Genset.Exponential { mean_us = 120.0 };
      serving = Some Sysim.default_serving;
    }
  in
  gate "set 8, default serving" set8 ~tasks:200 ~bound:0.940;
  let tenant name share =
    Genset.tenant_load name
      ~tasks:(int_of_float (2_000.0 *. share))
      ~arrival:(Genset.Exponential { mean_us = 250.0 /. share })
  in
  let steady =
    {
      (Sysim.default_config ~policy:Runtime.greedy
         ~composition:{ Genset.s = 1.0; m = 0.0; l = 0.0 })
      with
      Sysim.repeats_per_task = 8;
      cluster_kinds =
        List.init 64 (fun i -> if i land 3 = 3 then Device.XCKU115 else Device.XCVU37P);
      tenants = [ tenant "alice" 0.4; tenant "bob" 0.4; tenant "carol" 0.2 ];
      serving =
        Some
          {
            Sysim.default_serving with
            Sysim.classes =
              [
                Mlv_sched.Slo.class_spec ~deadline_us:80_000.0 ~rate_per_s:1e7
                  ~burst:1_000_000 "S";
              ];
            batch = Mlv_sched.Batcher.config ~max_batch:4 ~max_linger_us:50.0 ();
            autoscale =
              Some
                (Mlv_sched.Autoscaler.config ~interval_us:250.0
                   ~high_backlog_per_replica:2.0 ~low_backlog_per_replica:0.0
                   ~cooldown_us:0.0 ~idle_timeout_us:1e9 ~max_replicas:64 ());
          };
    }
  in
  gate "serve_steady shape" steady ~tasks:2_000 ~bound:0.551

(* The autoscaler's idle path: two waves of one accelerator group's
   requests, 20 ms apart, on eight XCVU37Ps, with a 500 µs idle
   timeout and a 100 µs tick.  Four requests of two models arrive at
   once and make two identical batches, so replicas finish together;
   models of different service times make replicas go idle in an order
   other than the one they were made in.  Scale-down must reclaim as
   soon as the longest-idle replica passes the timeout, and the second
   wave meets the fleet that leaves.  Pinned before the tick tracked
   its idle replicas in a list. *)
let idle_path_cfg () =
  let points =
    [|
      { Deepbench.kind = Codegen.Gru; hidden = 512; timesteps = 1 };
      { Deepbench.kind = Codegen.Lstm; hidden = 512; timesteps = 25 };
      { Deepbench.kind = Codegen.Lstm; hidden = 256; timesteps = 150 };
      { Deepbench.kind = Codegen.Gru; hidden = 768; timesteps = 100 };
    |]
  in
  let tasks =
    List.init 64 (fun task_id ->
        let wave = task_id / 32 and quad = task_id mod 32 / 4 in
        let p = (quad + wave) mod 4 and q = ((quad * 3) + 1) mod 4 in
        {
          Genset.task_id;
          point = points.(if task_id mod 2 = 0 then p else q);
          model_class = Mlv_workload.Sizes.S;
          arrival_us = (float_of_int wave *. 20_000.0) +. (80.0 *. float_of_int quad);
          tenant = "-";
        })
  in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6) in
  {
    cfg with
    Sysim.tasks = 64;
    replay = Some tasks;
    repeats_per_task = 2;
    cluster_kinds = List.init 8 (fun _ -> Device.XCVU37P);
    serving =
      Some
        {
          Sysim.default_serving with
          Sysim.batch = Mlv_sched.Batcher.config ~max_batch:2 ~max_linger_us:30.0 ();
          autoscale =
            Some
              (Mlv_sched.Autoscaler.config ~interval_us:100.0
                 ~high_backlog_per_replica:1.0 ~low_backlog_per_replica:0.5
                 ~cooldown_us:0.0 ~idle_timeout_us:500.0 ~max_replicas:16 ());
        };
  }

let test_idle_path_pinned () =
  let r, _ = traced_run (idle_path_cfg ()) in
  let completions =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        match (e.Obs.Trace.phase, e.Obs.Trace.deployment) with
        | Obs.Trace.Complete, Some d -> Some (e.Obs.Trace.at_sim_us, d)
        | _ -> None)
      (Obs.Trace.events ())
    |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    "two batches complete at one instant" true
    (List.exists
       (fun (t, d) -> List.exists (fun (t', d') -> t = t' && d <> d') completions)
       completions);
  (* The first time each deployment goes idle, in time order. *)
  let first_idle =
    List.fold_left
      (fun acc (_, d) -> if List.mem d acc then acc else acc @ [ d ])
      [] completions
  in
  Alcotest.(check bool)
    "replicas go idle out of creation order" true
    (first_idle <> List.sort compare first_idle);
  Alcotest.(check int) "completed" 64 r.Sysim.completed;
  Alcotest.(check int) "scale-downs" 26 r.Sysim.scale_downs;
  Alcotest.(check string) "result" "7523d133ce0ca0f12af0dab175729e7e" (result_md5 r)

let () =
  Alcotest.run "sysim"
    [
      ( "sysim",
        [
          Alcotest.test_case "instances registered" `Quick test_instances_registered;
          Alcotest.test_case "instance selection" `Quick test_instance_selection;
          Alcotest.test_case "all tasks complete" `Quick test_all_tasks_complete;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "greedy beats baseline" `Quick test_greedy_beats_baseline;
          Alcotest.test_case "SLO misses grow with load" `Quick test_slo_misses_grow_with_load;
          Alcotest.test_case "greedy vs restricted" `Quick test_greedy_beats_restricted;
          Alcotest.test_case "waits reasonable" `Quick test_wait_reasonable;
          Alcotest.test_case "scale-out shape" `Quick test_scale_out_shape;
          Alcotest.test_case "instance within cap" `Quick test_instance_within;
          Alcotest.test_case "serving run allocation" `Quick
            test_serving_run_allocation;
          Alcotest.test_case "results independent of history" `Quick
            test_results_independent_of_history;
          Alcotest.test_case "service memo matches fresh" `Quick
            test_service_memo_matches_fresh;
          Alcotest.test_case "idle path pinned" `Quick test_idle_path_pinned;
        ] );
      ( "tenants",
        [
          Alcotest.test_case "open-loop shapes identical" `Quick
            test_multi_tenant_open_loop_shapes_identical;
          Alcotest.test_case "serving shapes identical" `Quick
            test_multi_tenant_serving_shapes_identical;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash retries once" `Quick test_crash_retries_once;
          Alcotest.test_case "crash without capacity rejects" `Quick
            test_crash_without_capacity_rejects;
          Alcotest.test_case "undeployable head rejected" `Quick
            test_undeployable_head_rejected;
          Alcotest.test_case "infeasible head rejected at once" `Quick
            test_infeasible_head_rejected_at_once;
          Alcotest.test_case "serving reclaims nothing for the infeasible" `Quick
            test_serving_infeasible_reclaims_nothing;
          Alcotest.test_case "late crash does not perturb" `Quick
            test_late_crash_does_not_perturb;
          Alcotest.test_case "availability acceptance" `Quick
            test_availability_acceptance;
          Alcotest.test_case "crash hits a two-node flight" `Quick
            test_crash_hits_two_node_flight;
          Alcotest.test_case "sticky replica crash" `Quick test_sticky_replica_crash;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "closed accounting" `Quick test_trace_closed_accounting;
          Alcotest.test_case "labeled metrics deterministic" `Quick
            test_labeled_metrics_deterministic;
          Alcotest.test_case "run metrics and trace pinned" `Quick
            test_run_obs_pinned;
          Alcotest.test_case "mirrored counters equal the result" `Quick
            test_mirrored_counters;
          Alcotest.test_case "run owns its trace clock" `Quick
            test_trace_clock_owned_by_run;
          Alcotest.test_case "deploy spans own their ids" `Quick
            test_deploy_spans_own_ids;
          Alcotest.test_case "moved replicas serve again" `Quick
            test_moved_replicas_serve_again;
        ] );
    ]
