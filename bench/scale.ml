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
                    [--out FILE] [--smoke]
   `make bench-scale-smoke` runs the small 1k-node configuration as
   part of `make check`: it asserts the serving run's result digest
   equals [smoke_digest], plus isolation and allocation-free counter
   checks.  `make bench-scale` runs the full configuration and writes
   BENCH_scale.json. *)

module Sysim = Mlv_sysim.Sysim
module Genset = Mlv_workload.Genset
module Runtime = Mlv_core.Runtime
module Device = Mlv_fpga.Device
module Batcher = Mlv_sched.Batcher
module Router = Mlv_sched.Router
module Autoscaler = Mlv_sched.Autoscaler
module Obs = Mlv_obs.Obs

(* ---------------- workload ---------------- *)

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

let total_tasks loads =
  List.fold_left (fun acc l -> acc + l.Genset.tl_tasks) 0 loads

(* A 3:1 XCVU37P:XCKU115 mix, the heterogeneous-cloud shape of the
   paper scaled out to datacenter node counts. *)
let cluster_kinds nodes =
  List.init nodes (fun i ->
      if i land 3 = 3 then Device.XCKU115 else Device.XCVU37P)

let scale_config ~nodes ~tasks ~unit_mean_us ~max_replicas ~repeats ~seed
    ~bursty ~tenant_pool =
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
              (Autoscaler.config ~interval_us:250.0
                 ~high_backlog_per_replica:2.0 ~low_backlog_per_replica:0.0
                 ~cooldown_us:0.0 ~idle_timeout_us:1e9 ~max_replicas ());
          tenant_pool;
          preempt = false;
          defrag = None;
        };
  }

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
      digest = digest_result r;
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

(* ---------------- allocation-free counter checks ---------------- *)

(* The incrementally maintained read paths the serving tick leans on
   must not allocate: warm the caches, then demand (near-)zero
   allocation over a thousand calls.  512 bytes of slack absorbs the
   boxed floats of [Gc.allocated_bytes] itself. *)
let assert_no_alloc () =
  let router = Router.create () in
  for i = 0 to 63 do
    Router.add_replica router
      ~key:("g" ^ string_of_int (i land 7))
      ~replica_id:i ~weight:1.0;
    Router.begin_work router
      ~key:("g" ^ string_of_int (i land 7))
      ~replica_id:i (1 + (i land 3))
  done;
  let batcher = Batcher.create (Batcher.config ~max_batch:8 ~max_linger_us:100.0 ()) in
  for i = 0 to 31 do
    ignore (Batcher.add batcher ~key:("g" ^ string_of_int (i land 7)) ~now_us:(float_of_int i) i)
  done;
  let sink = ref 0 in
  let measure name f =
    for _ = 1 to 10 do
      sink := !sink + f ()
    done;
    let b0 = Gc.allocated_bytes () in
    for _ = 1 to 1000 do
      sink := !sink + f ()
    done;
    let delta = Gc.allocated_bytes () -. b0 in
    if delta > 512.0 then begin
      Printf.eprintf "FAIL: %s allocated %.0f bytes over 1000 calls\n" name delta;
      exit 1
    end;
    Printf.printf "  %-28s %.0f bytes / 1000 calls\n" name delta
  in
  Printf.printf "allocation-free counter checks:\n";
  measure "Router.keys" (fun () ->
      List.length (Sys.opaque_identity (Router.keys router)));
  measure "Router.total_outstanding" (fun () ->
      Sys.opaque_identity (Router.total_outstanding router));
  measure "Batcher.keys" (fun () ->
      List.length (Sys.opaque_identity (Batcher.keys batcher)));
  measure "Batcher.total_pending" (fun () ->
      Sys.opaque_identity (Batcher.total_pending batcher));
  measure "Batcher.nonempty_kinds" (fun () ->
      Sys.opaque_identity (Batcher.nonempty_kinds batcher));
  ignore (Sys.opaque_identity !sink)

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

(* [digest_result] of the --smoke serving run.  Recorded while the
   pre-index linear data shapes (list flight table, fold-per-pick
   router, per-completion group sweeps) were still selectable, with
   both shapes producing this digest, so it certifies both. *)
let smoke_digest = 3361769800954537541

let () =
  let nodes = ref 10_000
  and big_nodes = ref 100_000
  and tasks = ref 1_000_000
  and seed = ref 11
  and mean_us = ref 2.5
  and repeats = ref 8
  and max_replicas = ref 2048
  and out = ref "BENCH_scale.json"
  and isolation_margin = ref 0.85
  and smoke = ref false in
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
      ( "--smoke",
        Arg.Set smoke,
        "small configuration: 1k nodes, 24k tasks; digest, isolation and \
         allocation checks" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "datacenter-scale serving benchmark";
  if !smoke then begin
    nodes := 1_000;
    big_nodes := 0;
    tasks := 24_000;
    mean_us := 33.0;
    max_replicas := 96
  end;
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
      (scale_config ~nodes:!nodes ~tasks:!tasks ~unit_mean_us:!mean_us
         ~max_replicas:!max_replicas ~repeats:!repeats ~seed:!seed ~bursty:true
         ~tenant_pool:None)
  in
  (* Sub-quadratic scaling: 10x the nodes may not cost more than ~3x
     the per-event throughput (linear-in-nodes hot paths would cost
     ~10x). *)
  let big =
    if !big_nodes > !nodes then begin
      let cfg =
        scale_config ~nodes:!big_nodes ~tasks:!tasks ~unit_mean_us:!mean_us
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
    scale_config ~nodes:iso_nodes ~tasks:iso_tasks ~unit_mean_us:iso_mean
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
  if !smoke then assert_no_alloc ();
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
  if !smoke && indexed.digest <> smoke_digest then begin
    Printf.eprintf "FAIL: serving digest %d, pinned %d\n" indexed.digest
      smoke_digest;
    exit 1
  end;
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
