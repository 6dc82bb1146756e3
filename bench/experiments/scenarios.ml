(* The serving and fault scenarios that both a bench and tier-1 run:
   [bench/main.exe sched]'s elastic-serving comparison, the datacenter
   shape of [bench/scale.exe] with its result digest, and the
   crash-restore plan of [bench/main.exe faults] and [trace]. *)

module Device = Mlv_fpga.Device
module Fault_plan = Mlv_cluster.Fault_plan
module Runtime = Mlv_core.Runtime
module Genset = Mlv_workload.Genset
module Slo = Mlv_sched.Slo
module Batcher = Mlv_sched.Batcher
module Autoscaler = Mlv_sched.Autoscaler
module Sysim = Mlv_sysim.Sysim

(* ---------------- faults ---------------- *)

(* Node 1 crashes at 0.3 of a fault-free makespan and is restored at
   0.6: the crash lands mid-run at any task count. *)
let crash_restore_plan makespan_us =
  Fault_plan.make
    [
      { Fault_plan.at = 0.3 *. makespan_us; action = Fault_plan.Crash 1 };
      { Fault_plan.at = 0.6 *. makespan_us; action = Fault_plan.Restore 1 };
    ]

(* ---------------- elastic serving on a bursty trace ---------------- *)

(* Two-rate burst cycle: 2 ms of heavy traffic (50 us mean
   inter-arrival), 8 ms of light traffic.  Static provisioning must
   either waste replicas during the lull or queue during the burst;
   the autoscaler rides the cycle. *)
let sched_arrival =
  Genset.Bursty
    { on_us = 2_000.0; off_us = 8_000.0; on_mean_us = 50.0; off_mean_us = 2_000.0 }

(* Admission classes keyed by model class; L tasks get twice the
   deadline. *)
let sched_classes ~deadline_us ~rate_per_s ~burst =
  [
    Slo.class_spec ~priority:2 ~deadline_us ~rate_per_s ~burst "S";
    Slo.class_spec ~priority:1 ~deadline_us ~rate_per_s ~burst "M";
    Slo.class_spec ~priority:0 ~deadline_us:(2.0 *. deadline_us) ~rate_per_s ~burst "L";
  ]

(* Workload set 7 under the greedy policy on the bursty trace. *)
let sched_config ~tasks serving =
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6) in
  { cfg with Sysim.tasks; arrival = sched_arrival; serving }

(* Rates well above the offered load, so the gate sheds nothing and
   the p99 comparison stays apples to apples, while the deadlines feed
   the goodput accounting. *)
let sched_serving ~deadline_us ~autoscale =
  {
    Sysim.classes = sched_classes ~deadline_us ~rate_per_s:100_000.0 ~burst:256;
    batch = Batcher.config ~max_batch:4 ~max_linger_us:100.0 ();
    autoscale;
    tenant_pool = None;
    defrag = None;
  }

let sched_tasks = 120

let sched_serve ~registry ~tasks ~deadline_us autoscale =
  Sysim.run ~registry (sched_config ~tasks (Some (sched_serving ~deadline_us ~autoscale)))

(* Static provisioning (the open loop), warm-replica serving and the
   closed autoscaler loop on one trace.  The serving rows share one
   deadline, 20x the static row's mean service time, so the comparison
   stays meaningful if the service model shifts. *)
let sched_rows ~registry ~tasks =
  let static = Sysim.run ~registry (sched_config ~tasks None) in
  let deadline_us = 20.0 *. static.Sysim.mean_service_us in
  let served = sched_serve ~registry ~tasks ~deadline_us None in
  let autoscaled = sched_serve ~registry ~tasks ~deadline_us (Some Autoscaler.default) in
  (deadline_us, [ ("static", static); ("served-static", served); ("autoscaled", autoscaled) ])

(* Capacity-starved: a one-node cluster with tight admission rates
   forces the gate to shed, early rejection instead of unbounded
   queueing. *)
let sched_starved ~registry ~tasks ~deadline_us =
  let serving =
    {
      (sched_serving ~deadline_us ~autoscale:(Some Autoscaler.default)) with
      Sysim.classes = sched_classes ~deadline_us ~rate_per_s:2_000.0 ~burst:8;
    }
  in
  Sysim.run ~registry
    { (sched_config ~tasks (Some serving)) with Sysim.cluster_kinds = [ Device.XCVU37P ] }

(* ---------------- datacenter shape ---------------- *)

(* Tenant mix: alice and carol are steady Poisson streams, bob is
   either calm (Poisson, same average rate as alice) or bursty (short
   on-phases at several times his fair share).  [unit_mean_us] is the
   mean inter-arrival of the combined stream; shares are 40/40/20. *)
let tenant_loads ~tasks ~unit_mean_us ~bursty =
  let a = tasks * 2 / 5 in
  let b = tasks * 2 / 5 in
  let c = tasks - a - b in
  let bob_arrival =
    if bursty then
      Genset.Bursty
        {
          (* Phases scale with the stream so each on-phase carries a
             couple hundred arrivals — enough to overwhelm a fair-share
             token bucket, not just ride it. *)
          on_us = unit_mean_us *. 150.0;
          off_us = unit_mean_us *. 450.0;
          (* ~4x the calm rate while on, near-silent while off: the
             duty cycle keeps the average near the calm stream's. *)
          on_mean_us = unit_mean_us *. 0.66;
          off_mean_us = unit_mean_us *. 37.5;
        }
    else Genset.Exponential { mean_us = unit_mean_us /. 0.4 }
  in
  [
    Genset.tenant_load "alice" ~tasks:a
      ~arrival:(Genset.Exponential { mean_us = unit_mean_us /. 0.4 });
    Genset.tenant_load "bob" ~tasks:b ~arrival:bob_arrival;
    Genset.tenant_load "carol" ~tasks:c
      ~arrival:(Genset.Exponential { mean_us = unit_mean_us /. 0.2 });
  ]

(* A 3:1 XCVU37P:XCKU115 mix, the heterogeneous-cloud shape of the
   paper scaled out to datacenter node counts. *)
let cluster_kinds nodes =
  List.init nodes (fun i -> if i land 3 = 3 then Device.XCKU115 else Device.XCVU37P)

(* Three tenants of single-inference S-class models behind the
   autoscaler at a 250 us tick, optionally behind a weighted
   fair-share pool. *)
let scale_config ~nodes ~tasks ~unit_mean_us ~max_replicas ~repeats ~seed ~bursty
    ~tenant_pool =
  let base =
    Sysim.default_config ~policy:Runtime.greedy
      ~composition:{ Genset.s = 1.0; m = 0.0; l = 0.0 }
  in
  {
    base with
    Sysim.seed;
    repeats_per_task = repeats;
    slo_multiplier = 50.0;
    cluster_kinds = cluster_kinds nodes;
    tenants = tenant_loads ~tasks ~unit_mean_us ~bursty;
    serving =
      Some
        {
          Sysim.classes = [];
          batch = Batcher.config ~max_batch:4 ~max_linger_us:50.0 ();
          autoscale =
            Some
              (Autoscaler.config ~interval_us:250.0 ~high_backlog_per_replica:2.0
                 ~low_backlog_per_replica:0.0 ~cooldown_us:0.0 ~idle_timeout_us:1e9
                 ~max_replicas ());
          tenant_pool;
          defrag = None;
        };
  }

let fbits f = Int64.to_int (Int64.bits_of_float f)

(* Order-sensitive fold over every deterministic result field
   (loop_wall_s is real time and excluded): two runs agree on the
   digest iff they made the identical event-by-event decisions. *)
let digest_result (r : Sysim.result) =
  let d = ref 0 in
  let mix v = d := (!d * 31) + v in
  mix r.Sysim.completed;
  mix r.Sysim.rejected;
  mix r.Sysim.shed;
  mix r.Sysim.lost;
  mix r.Sysim.slo_misses;
  mix r.Sysim.batches;
  mix r.Sysim.scale_ups;
  mix r.Sysim.scale_downs;
  mix r.Sysim.peak_queue;
  mix (fbits r.Sysim.makespan_us);
  mix (fbits r.Sysim.mean_latency_us);
  mix (fbits r.Sysim.p99_latency_us);
  List.iter (fun l -> mix (fbits l)) r.Sysim.latencies_us;
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      mix (Hashtbl.hash t.Sysim.tn_name);
      mix t.Sysim.tn_arrived;
      mix t.Sysim.tn_admitted;
      mix t.Sysim.tn_shed;
      mix t.Sysim.tn_completed;
      mix t.Sysim.tn_rejected;
      mix t.Sysim.tn_slo_misses;
      mix (fbits t.Sysim.tn_goodput_per_s);
      mix (fbits t.Sysim.tn_p99_latency_us))
    r.Sysim.per_tenant;
  !d
