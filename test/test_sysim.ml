(* Tests for the system-level simulation: policy comparisons at small
   scale (the full Fig. 12 runs live in the benchmark harness). *)

module Sysim = Mlv_sysim.Sysim
module Runtime = Mlv_core.Runtime
module Genset = Mlv_workload.Genset
module Deepbench = Mlv_workload.Deepbench
module Codegen = Mlv_isa.Codegen

(* The registry build compiles ten accelerator instances; share it. *)
let registry = lazy (Sysim.build_registry ())

let run ?(tasks = 40) policy set =
  let cfg = Sysim.default_config ~policy ~composition:Genset.table1.(set) in
  Sysim.run ~registry:(Lazy.force registry) { cfg with Sysim.tasks }

let test_instances_registered () =
  let names = Mlv_core.Registry.names (Lazy.force registry) in
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
      { cfg with Sysim.tasks = 40; mean_interarrival_us = interarrival }
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

(* ---------------- flight table ---------------- *)

module Flight_table = Mlv_sysim.Flight_table
module Rng = Mlv_util.Rng

let test_flight_table_basics () =
  let t : int Flight_table.t = Flight_table.create () in
  let a = Flight_table.add t 1 ~nodes:[ 0; 1 ] in
  let b = Flight_table.add t 2 ~nodes:[ 1 ] in
  let c = Flight_table.add t 3 ~nodes:[ 2 ] in
  Alcotest.(check int) "size" 3 (Flight_table.size t);
  Alcotest.(check (list int)) "newest first" [ 3; 2; 1 ]
    (List.map Flight_table.value (Flight_table.to_list t));
  Flight_table.remove t b;
  Flight_table.remove t b;
  (* idempotent *)
  Alcotest.(check int) "size after double remove" 2 (Flight_table.size t);
  Alcotest.(check bool) "removed entry dead" false (Flight_table.live b);
  Alcotest.(check bool) "other entry live" true (Flight_table.live a);
  let hits = Flight_table.take_node t 1 in
  Alcotest.(check (list int)) "crash on node 1 hits the survivor" [ 1 ]
    (List.map Flight_table.value hits);
  Alcotest.(check bool) "taken entries dead" true
    (List.for_all (fun e -> not (Flight_table.live e)) hits);
  Alcotest.(check int) "only the untouched flight remains" 1
    (Flight_table.size t);
  Alcotest.(check (list int)) "node 2 still occupied" [ 3 ]
    (List.map Flight_table.value (Flight_table.take_node t 2));
  Alcotest.(check int) "empty" 0 (Flight_table.size t);
  ignore c

let test_flight_table_differential () =
  (* random add/remove/crash sequence: the indexed table and the
     linear [Flight_table_oracle] must expose identical contents at
     every step *)
  let rng = Rng.create 17 in
  let idx : int Flight_table.t = Flight_table.create () in
  let lin : int Flight_table_oracle.t = Flight_table_oracle.create () in
  let entries = ref [] in
  let values t = List.map Flight_table.value (Flight_table.to_list t) in
  let lin_values () =
    List.map Flight_table_oracle.value (Flight_table_oracle.to_list lin)
  in
  for i = 0 to 499 do
    let r = Rng.float rng 1.0 in
    if r < 0.55 || !entries = [] then begin
      let nodes = [ Rng.int rng 8; Rng.int rng 8 ] in
      let ei = Flight_table.add idx i ~nodes in
      let el = Flight_table_oracle.add lin i ~nodes in
      entries := (ei, el) :: !entries
    end
    else if r < 0.8 then begin
      let n = Rng.int rng (List.length !entries) in
      let ei, el = List.nth !entries n in
      Flight_table.remove idx ei;
      Flight_table_oracle.remove lin el;
      entries := List.filteri (fun j _ -> j <> n) !entries
    end
    else begin
      let node = Rng.int rng 8 in
      let sorted value es = List.map value es |> List.sort compare in
      Alcotest.(check (list int))
        "crash hits agree"
        (sorted Flight_table_oracle.value (Flight_table_oracle.take_node lin node))
        (sorted Flight_table.value (Flight_table.take_node idx node));
      entries := List.filter (fun (ei, _) -> Flight_table.live ei) !entries
    end;
    Alcotest.(check int) "sizes agree" (Flight_table_oracle.size lin)
      (Flight_table.size idx);
    Alcotest.(check (list int)) "contents agree" (lin_values ()) (values idx)
  done

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
   producing the identical result, so it certifies both. *)
let test_multi_tenant_open_loop_shapes_identical () =
  let r = Sysim.run ~registry:(Lazy.force registry) (tenant_cfg ~serving:None) in
  Alcotest.(check string) "result digest" "fcd993e6650dc7a0af658b2dc4b0cedc"
    (result_md5 r);
  check_tenant_accounting r

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
    mean_interarrival_us = 1.0;
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
  let plan =
    Fault_plan.make
      [
        { Fault_plan.at = 0.3 *. base.Sysim.makespan_us; action = Fault_plan.Crash 1 };
        { Fault_plan.at = 0.6 *. base.Sysim.makespan_us; action = Fault_plan.Restore 1 };
      ]
  in
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

let test_trace_closed_accounting () =
  (* a faulted run with tracing on: every lifecycle count must close
     against the run's own accounting, crash-requeue path included *)
  let base = run Runtime.greedy 7 in
  let plan =
    Fault_plan.make
      [
        { Fault_plan.at = 0.3 *. base.Sysim.makespan_us; action = Fault_plan.Crash 1 };
        { Fault_plan.at = 0.6 *. base.Sysim.makespan_us; action = Fault_plan.Restore 1 };
      ]
  in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7) in
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.Trace.set_enabled false)
    (fun () ->
      Obs.Trace.set_enabled true;
      let r =
        Sysim.run ~registry:(Lazy.force registry)
          { cfg with Sysim.tasks = 40; faults = Some (Sysim.default_faults plan) }
      in
      Alcotest.(check int) "arrive events = tasks" 40
        (Obs.Trace.count Obs.Trace.Arrive);
      Alcotest.(check int) "queue events = tasks" 40
        (Obs.Trace.count Obs.Trace.Queue);
      Alcotest.(check int) "complete events = completed" r.Sysim.completed
        (Obs.Trace.count Obs.Trace.Complete);
      Alcotest.(check int) "reject events = rejected" r.Sysim.rejected
        (Obs.Trace.count Obs.Trace.Reject);
      Alcotest.(check int) "retry events = retried" r.Sysim.retried
        (Obs.Trace.count Obs.Trace.Retry);
      Alcotest.(check bool) "crash interrupted in-flight work" true
        (Obs.Trace.count Obs.Trace.Crash_interrupt > 0);
      Alcotest.(check int) "deploy events = service events"
        (Obs.Trace.count Obs.Trace.Deploy)
        (Obs.Trace.count Obs.Trace.Service);
      Alcotest.(check int) "fault marks on the timeline" 2
        (Obs.Trace.count Obs.Trace.Mark);
      Alcotest.(check int) "run accounting closes" 40
        (r.Sysim.completed + r.Sysim.rejected + r.Sysim.lost))

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

let test_wait_reasonable () =
  let r = run ~tasks:20 Runtime.greedy 0 in
  (* an all-S set at this arrival rate should barely queue *)
  Alcotest.(check bool) "waits bounded" true (r.Sysim.mean_wait_us < r.Sysim.makespan_us);
  Alcotest.(check bool) "service positive" true (r.Sysim.mean_service_us > 0.0);
  Alcotest.(check bool) "p95 >= mean" true (r.Sysim.p95_latency_us >= r.Sysim.mean_latency_us *. 0.5);
  Alcotest.(check int) "latency per task" r.Sysim.completed (List.length r.Sysim.latencies_us);
  Alcotest.(check bool) "slo misses bounded" true
    (r.Sysim.slo_misses >= 0 && r.Sysim.slo_misses <= r.Sysim.completed)

(* Allocation of one registry build is deterministic, so a bound on it
   catches a return to per-block estimation without wall-clock noise.
   The build allocates 6.9 M words; estimating every leaf block instead
   of every basic module allocates 29.6 M even over the linear census,
   and 127.6 M over the old quadratic one. *)
let test_registry_build_allocation () =
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  ignore (Sysim.build_registry ());
  let mwords = (allocated () -. before) /. 1e6 in
  if mwords > 16.0 then
    Alcotest.failf "one registry build allocated %.2f M words (bound 16)" mwords

(* One serving run's allocation: 200 tasks of set 8 under the default
   serving loop.  Measured on the second of two identical runs, so the
   process-wide service and plan caches are warm and the count covers
   the loop alone; [Gc.minor_words] is exact, where the major-heap
   count moves with GC timing.  The heap-indexed loop allocates 2.86 M
   minor words; the per-completion group sweeps and linear router it
   replaced allocated 4.29 M on the same run. *)
let test_serving_run_allocation () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7)
  in
  let cfg =
    {
      cfg with
      Sysim.tasks = 200;
      mean_interarrival_us = 120.0;
      serving = Some Sysim.default_serving;
    }
  in
  ignore (Sysim.run ~registry:(Lazy.force registry) cfg);
  let before = Gc.minor_words () in
  let r = Sysim.run ~registry:(Lazy.force registry) cfg in
  let mwords = (Gc.minor_words () -. before) /. 1e6 in
  Alcotest.(check int) "all complete" 200 r.Sysim.completed;
  if mwords > 3.5 then
    Alcotest.failf "one serving run allocated %.3f M minor words (bound 3.5)"
      mwords

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
          Alcotest.test_case "registry build allocation" `Quick
            test_registry_build_allocation;
          Alcotest.test_case "serving run allocation" `Quick
            test_serving_run_allocation;
          Alcotest.test_case "results independent of history" `Quick
            test_results_independent_of_history;
        ] );
      ( "flight_table",
        [
          Alcotest.test_case "basics" `Quick test_flight_table_basics;
          Alcotest.test_case "shapes differential" `Quick
            test_flight_table_differential;
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
          Alcotest.test_case "late crash does not perturb" `Quick
            test_late_crash_does_not_perturb;
          Alcotest.test_case "availability acceptance" `Quick
            test_availability_acceptance;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "closed accounting" `Quick test_trace_closed_accounting;
          Alcotest.test_case "labeled metrics deterministic" `Quick
            test_labeled_metrics_deterministic;
        ] );
    ]
