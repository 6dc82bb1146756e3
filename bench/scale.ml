(* Datacenter-scale serving benchmark: ~1M tasks from three tenants
   through the closed-loop serving engine at 10k and 100k nodes.

   Throughput is tasks per second of event-loop wall time
   (result.loop_wall_s): workload generation and cluster construction
   are excluded, so it isolates the per-event cost of the serving hot
   paths (heap-indexed router, starved-group set, incremental
   counters).  A second run at --big-nodes checks that throughput
   degrades sub-linearly in cluster size.  A calm/bursty tenant pair
   behind the weighted fair-share admission pool asserts the isolation
   invariant: the bursty tenant is shed at admission while a
   well-behaved tenant keeps (within --isolation-margin) the goodput
   it had when every tenant was calm.

   Usage: scale.exe [--nodes N] [--big-nodes N] [--tasks N] [--seed S]
                    [--mean-us F] [--repeats N] [--max-replicas N]
                    [--out FILE]
   `make bench-scale` runs the full configuration and writes
   BENCH_scale.json.  The same shape at 1k nodes, with its pinned
   result digest, is test_sched's "datacenter shape at 1k nodes"; the
   allocation-free counter reads are checked in test_sched's batching
   and routing tests. *)

module Sysim = Mlv_sysim.Sysim
module Genset = Mlv_workload.Genset
module Obs = Mlv_obs.Obs
module Scenarios = Mlv_experiments.Scenarios

(* ---------------- workload ---------------- *)

(* The tenant mix, cluster shape and result digest are
   [Mlv_experiments.Scenarios]'s, shared with tier-1. *)

let total_tasks loads =
  List.fold_left (fun acc l -> acc + l.Genset.tl_tasks) 0 loads

(* ---------------- measurement ---------------- *)

type outcome = {
  label : string;
  nodes : int;
  tasks : int;
  wall_s : float;
  loop_wall_s : float;
  tasks_per_s : float;  (* tasks / loop_wall_s: serving-loop throughput *)
  digest : int;
  result : Sysim.result;
}

let tenant_line (t : Sysim.tenant_stats) =
  Printf.sprintf
    "%s: arrived %d admitted %d shed %d completed %d goodput %.0f/s p99 %.0fus"
    t.Sysim.tn_name t.Sysim.tn_arrived t.Sysim.tn_admitted t.Sysim.tn_shed
    t.Sysim.tn_completed t.Sysim.tn_goodput_per_s t.Sysim.tn_p99_latency_us

let run_case ~registry ~label cfg =
  Obs.reset ();
  let tasks = total_tasks cfg.Sysim.tenants in
  let nodes = List.length cfg.Sysim.cluster_kinds in
  let t0 = Unix.gettimeofday () in
  let r = Sysim.run ~registry cfg in
  let wall_s = Unix.gettimeofday () -. t0 in
  if r.Sysim.lost <> 0 then begin
    Printf.eprintf "FAIL: %s lost %d tasks\n" label r.Sysim.lost;
    exit 1
  end;
  let o =
    {
      label;
      nodes;
      tasks;
      wall_s;
      loop_wall_s = r.Sysim.loop_wall_s;
      tasks_per_s =
        (if r.Sysim.loop_wall_s > 0.0 then
           float_of_int tasks /. r.Sysim.loop_wall_s
         else 0.0);
      digest = Scenarios.digest_result r;
      result = r;
    }
  in
  Printf.printf
    "%-18s %6dk tasks %7d nodes  %8.0f tasks/s  loop %6.2fs (wall %6.2fs)  \
     completed %d shed %d rejected %d replicas %d svc %.0fus makespan %.2fs \
     p99 %.0fus\n%!"
    label (tasks / 1000) nodes o.tasks_per_s o.loop_wall_s wall_s
    r.Sysim.completed r.Sysim.shed r.Sysim.rejected r.Sysim.scale_ups
    r.Sysim.mean_service_us (r.Sysim.makespan_us /. 1e6)
    r.Sysim.p99_latency_us;
  List.iter (fun t -> Printf.printf "    %s\n%!" (tenant_line t)) r.Sysim.per_tenant;
  o

(* ---------------- json ---------------- *)

let tenant_json (t : Sysim.tenant_stats) =
  Obs.Json.Obj
    [
      ("tenant", Obs.Json.String t.Sysim.tn_name);
      ("arrived", Obs.Json.Int t.Sysim.tn_arrived);
      ("admitted", Obs.Json.Int t.Sysim.tn_admitted);
      ("shed", Obs.Json.Int t.Sysim.tn_shed);
      ("completed", Obs.Json.Int t.Sysim.tn_completed);
      ("rejected", Obs.Json.Int t.Sysim.tn_rejected);
      ("slo_misses", Obs.Json.Int t.Sysim.tn_slo_misses);
      ("goodput_per_s", Obs.Json.Float t.Sysim.tn_goodput_per_s);
      ("p99_latency_us", Obs.Json.Float t.Sysim.tn_p99_latency_us);
    ]

let outcome_json o =
  let r = o.result in
  Obs.Json.Obj
    [
      ("label", Obs.Json.String o.label);
      ("nodes", Obs.Json.Int o.nodes);
      ("tasks", Obs.Json.Int o.tasks);
      ("wall_s", Obs.Json.Float o.wall_s);
      ("loop_wall_s", Obs.Json.Float o.loop_wall_s);
      ("tasks_per_s", Obs.Json.Float o.tasks_per_s);
      ("digest", Obs.Json.Int o.digest);
      ("completed", Obs.Json.Int r.Sysim.completed);
      ("shed", Obs.Json.Int r.Sysim.shed);
      ("rejected", Obs.Json.Int r.Sysim.rejected);
      ("slo_misses", Obs.Json.Int r.Sysim.slo_misses);
      ("batches", Obs.Json.Int r.Sysim.batches);
      ("replicas", Obs.Json.Int r.Sysim.scale_ups);
      ("makespan_us", Obs.Json.Float r.Sysim.makespan_us);
      ("p50_latency_us", Obs.Json.Float r.Sysim.p50_latency_us);
      ("p99_latency_us", Obs.Json.Float r.Sysim.p99_latency_us);
      ("goodput_per_s", Obs.Json.Float r.Sysim.goodput_per_s);
      ("per_tenant", Obs.Json.List (List.map tenant_json r.Sysim.per_tenant));
    ]

(* ---------------- driver ---------------- *)

let () =
  let nodes = ref 10_000
  and big_nodes = ref 100_000
  and tasks = ref 1_000_000
  and seed = ref 11
  and mean_us = ref 2.5
  and repeats = ref 8
  and max_replicas = ref 2048
  and out = ref "BENCH_scale.json"
  and isolation_margin = ref 0.85 in
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "cluster size of the throughput run (default 10000)");
      ( "--big-nodes",
        Arg.Set_int big_nodes,
        "cluster size of the scaling run (default 100000; 0 skips)" );
      ("--tasks", Arg.Set_int tasks, "tasks across the three tenants (default 1000000)");
      ("--seed", Arg.Set_int seed, "workload seed (default 11)");
      ( "--mean-us",
        Arg.Set_float mean_us,
        "mean inter-arrival of the combined stream, us (default 2.5)" );
      ("--repeats", Arg.Set_int repeats, "inferences per deployment (default 8)");
      ( "--max-replicas",
        Arg.Set_int max_replicas,
        "autoscaler replica ceiling per group (default 2048)" );
      ("--out", Arg.Set_string out, "output JSON path (default BENCH_scale.json)");
      ( "--isolation-margin",
        Arg.Set_float isolation_margin,
        "minimum bursty/calm SLO-met-completion ratio for the calm tenant \
         (default 0.85)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "datacenter-scale serving benchmark";
  if !nodes <= 0 || !tasks <= 0 || !mean_us <= 0.0 || !max_replicas <= 0 then begin
    prerr_endline "nodes, tasks, mean-us and max-replicas must be positive";
    exit 1
  end;
  Printf.printf
    "scale serving: %d tasks over %d nodes (big run %d), mean %.2fus, seed %d\n%!"
    !tasks !nodes !big_nodes !mean_us !seed;
  let registry = Sysim.build_registry () in
  let indexed =
    run_case ~registry ~label:"indexed"
      (Scenarios.scale_config ~nodes:!nodes ~tasks:!tasks ~unit_mean_us:!mean_us
         ~max_replicas:!max_replicas ~repeats:!repeats ~seed:!seed ~bursty:true
         ~tenant_pool:None)
  in
  (* Sub-quadratic scaling: 10x the nodes may not cost more than ~3x
     the per-event throughput (linear-in-nodes hot paths would cost
     ~10x). *)
  let big =
    if !big_nodes > !nodes then begin
      let cfg =
        Scenarios.scale_config ~nodes:!big_nodes ~tasks:!tasks ~unit_mean_us:!mean_us
          ~max_replicas:!max_replicas ~repeats:!repeats ~seed:!seed
          ~bursty:true ~tenant_pool:None
      in
      let o = run_case ~registry ~label:"indexed-big" cfg in
      let ratio =
        if o.tasks_per_s > 0.0 then indexed.tasks_per_s /. o.tasks_per_s
        else infinity
      in
      Printf.printf "throughput cost of %dx nodes: %.2fx\n%!"
        (!big_nodes / !nodes) ratio;
      if ratio > 3.0 then begin
        Printf.eprintf
          "FAIL: %d-node throughput degraded %.2fx vs %d nodes (super-linear)\n"
          !big_nodes ratio !nodes;
        exit 1
      end;
      Some (o, ratio)
    end
    else None
  in
  (* Isolation: same cluster scale-down, fair-share pool on; bob calm
     vs bob bursty.  alice must keep her goodput and bursty bob must
     actually be shed. *)
  (* The throughput pair runs saturated (sustained backlog keeps the
     router and the per-tick accounting under pressure); the isolation
     pair runs at moderate utilization — a 16x slower stream over a
     fifth of the cluster — so goodput and shedding are about the
     admission pool, not about raw capacity. *)
  let iso_nodes = max 200 (!nodes / 5) in
  let iso_tasks = max 6_000 (!tasks / 8) in
  let iso_mean = !mean_us *. 16.0 in
  let iso_replicas = max 16 (!max_replicas / 4) in
  (* Pool sized at ~1.65x the combined calm rate: a third each is
     comfortably above alice's and calm bob's 40% shares, far below
     bob's on-phase burst rate. *)
  let pool_rate = 1.65 /. (iso_mean /. 1e6) in
  let iso_cfg ~bursty =
    Scenarios.scale_config ~nodes:iso_nodes ~tasks:iso_tasks ~unit_mean_us:iso_mean
      ~max_replicas:iso_replicas ~repeats:!repeats ~seed:!seed ~bursty
      ~tenant_pool:(Some (pool_rate, 60))
  in
  let calm = run_case ~registry ~label:"iso-calm" (iso_cfg ~bursty:false) in
  let bursty = run_case ~registry ~label:"iso-bursty" (iso_cfg ~bursty:true) in
  let tenant_of o name =
    List.find_opt
      (fun (t : Sysim.tenant_stats) -> t.Sysim.tn_name = name)
      o.result.Sysim.per_tenant
  in
  (* Alice's arrival stream is drawn from her own seed split, so it is
     identical across the pair; compare her SLO-meeting completion
     counts (a rate would be skewed by the differing makespans of the
     two runs). *)
  let good_of o name =
    match tenant_of o name with
    | Some t -> t.Sysim.tn_completed - t.Sysim.tn_slo_misses
    | None -> 0
  in
  let shed_of o name =
    match tenant_of o name with Some t -> t.Sysim.tn_shed | None -> 0
  in
  let alice_ratio =
    let c = good_of calm "alice" in
    if c > 0 then float_of_int (good_of bursty "alice") /. float_of_int c
    else 0.0
  in
  let bob_shed = shed_of bursty "bob" in
  Printf.printf
    "isolation: alice SLO-met completions bursty/calm %.3f (floor %.2f), \
     bob shed %d\n%!"
    alice_ratio !isolation_margin bob_shed;
  let json =
    Obs.Json.Obj
      ([
         ("benchmark", Obs.Json.String "scale_serving");
         ("nodes", Obs.Json.Int !nodes);
         ("big_nodes", Obs.Json.Int !big_nodes);
         ("tasks", Obs.Json.Int !tasks);
         ("seed", Obs.Json.Int !seed);
         ("mean_us", Obs.Json.Float !mean_us);
         ("max_replicas", Obs.Json.Int !max_replicas);
         ("indexed", outcome_json indexed);
       ]
      @ (match big with
        | Some (o, ratio) ->
          [
            ("indexed_big", outcome_json o);
            ("big_throughput_cost", Obs.Json.Float ratio);
          ]
        | None -> [])
      @ [
          ("isolation_calm", outcome_json calm);
          ("isolation_bursty", outcome_json bursty);
          ("alice_goodput_ratio", Obs.Json.Float alice_ratio);
          ("bob_shed_bursty", Obs.Json.Int bob_shed);
        ])
  in
  let oc = open_out !out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" !out;
  if alice_ratio < !isolation_margin then begin
    Printf.eprintf
      "FAIL: alice's SLO-met completions dropped to %.3f of calm under \
       bob's burst (floor %.2f)\n"
      alice_ratio !isolation_margin;
    exit 1
  end;
  if bob_shed = 0 then begin
    prerr_endline "FAIL: bursty bob was never shed by the fair-share pool";
    exit 1
  end
