open Mlv_workload
module Runtime = Mlv_core.Runtime
module Registry = Mlv_core.Registry
module Framework = Mlv_core.Framework
module Scale_out = Mlv_core.Scale_out
module Defrag = Mlv_core.Defrag
module Bitstream = Mlv_vital.Bitstream
module Config = Mlv_accel.Config
module Perf = Mlv_accel.Perf
module Device = Mlv_fpga.Device
module Cluster = Mlv_cluster.Cluster
module Node = Mlv_cluster.Node
module Sim = Mlv_cluster.Sim
module Network = Mlv_cluster.Network
module Fault_plan = Mlv_cluster.Fault_plan
module Rng = Mlv_util.Rng
module Codegen = Mlv_isa.Codegen
module Obs = Mlv_obs.Obs
module Series = Mlv_obs.Series
module Alert = Mlv_obs.Alert
module Slo = Mlv_sched.Slo
module Batcher = Mlv_sched.Batcher
module Router = Mlv_sched.Router
module Autoscaler = Mlv_sched.Autoscaler
module Session = Mlv_serve.Session
module Mapcache = Mlv_serve.Mapcache
module Mapdb = Mlv_core.Mapdb

type fault_config = { plan : Fault_plan.t; max_retries : int }

let default_faults plan = { plan; max_retries = 3 }

type serving = {
  classes : Slo.class_spec list;
  batch : Batcher.config;
  autoscale : Autoscaler.config option;
  tenant_pool : (float * int) option;
      (* (rate_per_s, burst) of the tenant fair-share admission pool;
         requires config.tenants *)
  preempt : bool;
      (* higher-priority tenants may evict lower-priority tenants'
         replicas (migrate-or-undeploy) instead of backlogging; a
         no-op unless some tenant declares a positive tl_priority *)
  defrag : Defrag.config option;
      (* background compaction of idle replicas during low load *)
}

let default_serving =
  {
    classes = [];
    batch = Batcher.config ();
    autoscale = Some Autoscaler.default;
    tenant_pool = None;
    preempt = false;
    defrag = None;
  }

type telemetry = {
  scrape_interval_us : float;
  rules : Alert.rule list;
  series_buckets : int;
}

let default_telemetry =
  { scrape_interval_us = 10_000.0; rules = []; series_buckets = 512 }

(* The serving front door: client sessions with sticky routing and
   in-order delivery, a compiled-mapping cache, and forecast-driven
   autoscaling.  Each pillar is independently optional; all-None is
   bit-identical to a build without the front door. *)
type frontend = {
  sessions : Session.config option;
      (* long-lived client sessions keyed by tenant: per-accelerator
         replica affinity (sticky routing) and per-session in-order
         delivery of results, with idle expiry on the sim clock *)
  mapping_cache : (int * float) option;
      (* (capacity, compile_us): an LRU of compiled-mapping results
         keyed by Mapdb.shape_signature.  A request whose shape misses
         pays [compile_us] of decompose/partition/mapping work on top
         of its service time; a hit pays nothing extra *)
  predict : Autoscaler.predict option;
      (* forecast-driven autoscaling (Holt-Winters over the per-tick
         arrival rate) instead of the reactive backlog rules; requires
         serving.autoscale *)
}

let default_frontend = { sessions = None; mapping_cache = None; predict = None }

type config = {
  policy : Runtime.policy;
  composition : Genset.composition;
  tasks : int;
  mean_interarrival_us : float;
  arrival : Genset.arrival option;
  seed : int;
  repeats_per_task : int;
  slo_multiplier : float;
  cluster_kinds : Device.kind list;
  faults : fault_config option;
  serving : serving option;
  tenants : Genset.tenant_load list;
      (* non-empty: the workload is the merged multi-tenant stream and
         [tasks] is ignored in favour of the per-tenant counts *)
  bitstream_cache : int option;
      (* capacity of the runtime's bitstream staging cache; None (the
         default) keeps reconfiguration costs bit-identical to
         cacheless builds *)
  telemetry : telemetry option;
      (* None (the default) schedules no scrape ticks and registers no
         series: runs are bit-identical to pre-telemetry builds.  The
         scrape loop itself only reads run state, so even with it on,
         sim results stay bit-identical (bench/watch.ml asserts both
         directions). *)
  frontend : frontend option;
      (* the serving front door (sessions / mapping cache /
         predictive autoscaling); requires serving mode.  None (the
         default) — and Some default_frontend — are bit-identical to
         pre-front-door builds. *)
  replay : Genset.task list option;
      (* play this exact recorded task stream (see
         Mlv_serve.Trace_file) instead of generating one; overrides
         composition / tasks / arrival / tenants task generation *)
}

let default_config ~policy ~composition =
  {
    policy;
    composition;
    tasks = 120;
    mean_interarrival_us = 200.0;
    arrival = None;
    seed = 42;
    repeats_per_task = 20;
    slo_multiplier = 20.0;
    cluster_kinds = Cluster.paper_kinds;
    faults = None;
    serving = None;
    tenants = [];
    bitstream_cache = None;
    telemetry = None;
    frontend = None;
    replay = None;
  }

let arrival_of cfg =
  match cfg.arrival with
  | Some a -> a
  | None -> Genset.Exponential { mean_us = cfg.mean_interarrival_us }

(* Multi-tenant runs play the merged stream; [cfg.tasks] only drives
   the single-tenant generators.  A replay overrides both: the
   recorded trace IS the workload. *)
let task_count cfg =
  match cfg.replay with
  | Some ts -> List.length ts
  | None -> (
    match cfg.tenants with
    | [] -> cfg.tasks
    | loads -> List.fold_left (fun a l -> a + l.Genset.tl_tasks) 0 loads)

let generate_tasks ~rng cfg =
  match cfg.replay with
  | Some ts -> ts
  | None -> (
    match cfg.tenants with
    | [] ->
      Genset.generate_arrival ~rng ~composition:cfg.composition ~tasks:cfg.tasks
        ~arrival:(arrival_of cfg)
    | loads ->
      Genset.generate_tenants ~seed:cfg.seed ~composition:cfg.composition loads)

(* The exact task stream [run] will play for this config: both engines
   generate from a fresh seed-derived stream before consuming any
   other randomness, so recording this workload and replaying it is
   bit-identical to letting [run] generate it. *)
let workload cfg = generate_tasks ~rng:(Rng.create cfg.seed) cfg

(* Per-tenant slice of a multi-tenant run's accounting. *)
type tenant_stats = {
  tn_name : string;
  tn_arrived : int;
  tn_admitted : int;
  tn_shed : int;
  tn_completed : int;
  tn_rejected : int;
  tn_preempted_lost : int;
  tn_slo_misses : int;
  tn_goodput_per_s : float;
  tn_p99_latency_us : float;
}

type result = {
  completed : int;
  retried : int;
  rejected : int;
  shed : int;
  lost : int;
  makespan_us : float;
  throughput_per_s : float;
  goodput_per_s : float;
  fault_downtime_us : float;
  fault_free_throughput_per_s : float;
  mean_latency_us : float;
  mean_wait_us : float;
  wait_attempts : int;
  mean_wait_per_attempt_us : float;
  mean_service_us : float;
  p50_latency_us : float;
  p95_latency_us : float;
  p99_latency_us : float;
  peak_queue : int;
  latencies_us : float list;
  slo_misses : int;
  batches : int;
  scale_ups : int;
  scale_downs : int;
  preempted : int;
      (* tasks whose in-flight batch was cancelled by a priority
         preemption — they never complete and count separately from
         shed / rejected *)
  preemptions : int;  (* replica evictions by the preemption policy *)
  defrag_moves : int;  (* deployments moved by the background defragmenter *)
  cache_hits : int;  (* bitstream staging-cache hits (0 without a cache) *)
  cache_misses : int;
  sessions_opened : int;  (* front door: sessions opened (0 when off) *)
  sessions_expired : int;  (* front door: sessions reaped by idle expiry *)
  sticky_hits : int;  (* batches routed to a session's sticky replica *)
  sticky_misses : int;  (* sticky route dead; fell back to the router *)
  held_results : int;
      (* completions buffered for per-session in-order release *)
  mapcache_hits : int;  (* compiled-mapping cache hits (0 without a cache) *)
  mapcache_misses : int;
  mapcache_evictions : int;
  per_tenant : tenant_stats list;  (* [] unless config.tenants *)
  scrapes : int;  (* telemetry scrape ticks executed (0 when off) *)
  alert_transitions : Alert.transition list;
      (* every alert state transition, oldest first ([] when off) *)
  loop_wall_s : float;
      (* wall-clock seconds inside the event loop proper (excludes
         cluster build, workload generation and post-processing);
         nondeterministic — exclude it from bit-identity checks *)
}

(* Exact latency percentiles for the result record (the obs
   histograms track the same series to bucket resolution; tests pin
   the two views against each other).  One sort serves all three
   ranks — at a million samples the per-rank sorts dominated the
   post-processing. *)
let latency_percentiles latencies =
  match latencies with
  | [] -> (0.0, 0.0, 0.0)
  | xs -> (
    match Mlv_util.Stats.percentile_many [ 50.0; 95.0; 99.0 ] xs with
    | [ p50; p95; p99 ] -> (p50, p95, p99)
    | _ -> assert false)

(* Per-tenant running tallies; finalized into [tenant_stats] once the
   makespan is known. *)
type ttally = {
  tt_name : string;
  mutable tt_arrived : int;
  mutable tt_admitted : int;
  mutable tt_shed : int;
  mutable tt_completed : int;
  mutable tt_rejected : int;
  mutable tt_preempted : int;
  mutable tt_slo_misses : int;
  mutable tt_latencies : float list;
  tt_completed_c : Obs.Counter.t;
  tt_shed_c : Obs.Counter.t;
}

(* Tallies in declaration order; the handles for the per-tenant
   labeled series are hoisted here so the per-event paths never build
   a label list. *)
let make_tallies cfg =
  List.map
    (fun (l : Genset.tenant_load) ->
      let labels = [ ("tenant", l.Genset.tl_name) ] in
      ( l.Genset.tl_name,
        {
          tt_name = l.Genset.tl_name;
          tt_arrived = 0;
          tt_admitted = 0;
          tt_shed = 0;
          tt_completed = 0;
          tt_rejected = 0;
          tt_preempted = 0;
          tt_slo_misses = 0;
          tt_latencies = [];
          tt_completed_c = Obs.Counter.get_labeled "sysim.tenant.completed" labels;
          tt_shed_c = Obs.Counter.get_labeled "sysim.tenant.shed" labels;
        } ))
    cfg.tenants

let tenant_stats_of ~makespan_us tallies =
  List.map
    (fun (_, t) ->
      {
        tn_name = t.tt_name;
        tn_arrived = t.tt_arrived;
        tn_admitted = t.tt_admitted;
        tn_shed = t.tt_shed;
        tn_completed = t.tt_completed;
        tn_rejected = t.tt_rejected;
        tn_preempted_lost = t.tt_preempted;
        tn_slo_misses = t.tt_slo_misses;
        tn_goodput_per_s =
          (if makespan_us > 0.0 then
             float_of_int (t.tt_completed - t.tt_slo_misses)
             /. (makespan_us /. 1e6)
           else 0.0);
        tn_p99_latency_us =
          (match t.tt_latencies with
          | [] -> 0.0
          | xs -> Mlv_util.Stats.percentile 99.0 xs);
      })
    tallies

(* Ten accelerator instances (paper §4.3); the largest two exceed any
   single device and exist purely as multi-FPGA deployments. *)
let instance_tile_counts = [ 4; 6; 8; 10; 13; 16; 18; 21; 32; 42 ]

let build_registry () =
  Framework.npu_registry ~iterations:2 ~tile_counts:instance_tile_counts ()

let cache_stats runtime =
  match Runtime.bitstream_cache runtime with
  | Some c -> (Bitstream.Cache.hits c, Bitstream.Cache.misses c)
  | None -> (0, 0)

let tiles_needed point =
  let words = Deepbench.weight_words point in
  let bits = words * Config.stored_bits_per_weight in
  (bits + Config.tile_weight_bits - 1) / Config.tile_weight_bits

let max_single_device_tiles =
  List.fold_left
    (fun acc kind -> max acc (Mlv_accel.Resource_model.max_tiles (Device.get kind)))
    0 Device.kinds

(* Smallest candidate covering [need] within [cap]; an oversized model
   falls back to the largest instance within the cap (streaming the
   overflow from DRAM), and None when the cap admits no instance at
   all.  [candidates] must be sorted ascending. *)
let instance_within ~need ~cap candidates =
  (* Single ascending pass, no intermediate lists: the first candidate
     in [need, cap] is the smallest cover; past the cap everything
     later is larger too, so the best seen under the cap is final. *)
  let rec pick best_large = function
    | [] -> best_large
    | t :: rest ->
      if t > cap then best_large
      else if t >= need then Some t
      else pick (Some t) rest
  in
  pick None candidates

let instance_for ~policy point =
  let need = max 6 (tiles_needed point) in
  let cap =
    if policy.Runtime.whole_device then max_single_device_tiles else max_int
  in
  match instance_within ~need ~cap instance_tile_counts with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Sysim.instance_for: no instance within %d tiles under policy %s"
         cap policy.Runtime.policy_name)

(* Scale-out sizing: [parts] must divide [hidden] for the slice
   layout; fall back to 2 when it does not.  The per-part tile count
   is derived from the {e clamped} part count — sizing it for the
   unclamped count modeled every non-divisible scale-out point with
   undersized per-part configs. *)
let scale_out_shape ~hidden ~nodes ~tiles =
  let parts = if hidden mod nodes = 0 then nodes else 2 in
  (parts, max 1 (tiles / parts))

(* Modeled service time of one deployed inference task.  Keyed by the
   model inputs directly — the sprintf key this replaces burned an
   allocation and a format pass per lookup on the serving hot path. *)
let service_cache :
    (string * int * int * string * float * float * bool, float) Hashtbl.t =
  Hashtbl.create 64

(* Reordered scale-out plans, keyed by (point, parts): the program
   depends only on the model shape (input = hidden here) and the part
   count, so the keys that differ in tiles, device, partner slowdown or
   added latency share one [Scale_out.reorder] run. *)
let plan_cache : (Deepbench.point * int, Scale_out.plan) Hashtbl.t = Hashtbl.create 16

let scale_out_plan (point : Deepbench.point) ~parts =
  match Hashtbl.find_opt plan_cache (point, parts) with
  | Some plan -> plan
  | None ->
    let plan =
      Scale_out.plan ~reordered:true point.Deepbench.kind ~hidden:point.Deepbench.hidden
        ~input:point.Deepbench.hidden ~timesteps:point.Deepbench.timesteps ~parts
    in
    Hashtbl.replace plan_cache (point, parts) plan;
    plan

let service_latency_us ~policy ~added_latency_us (point : Deepbench.point)
    (d : Runtime.deployment) =
  let nodes = Runtime.nodes_used d in
  let tiles = Runtime.tiles_deployed d in
  let kinds =
    List.map (fun (p : Runtime.placement) -> p.Runtime.bitstream.Mlv_vital.Bitstream.device)
      d.Runtime.placements
    |> List.sort_uniq compare
  in
  let device_kind = match kinds with k :: _ -> k | [] -> Device.XCVU37P in
  (* Heterogeneous pieces: the barrier waits for the slowest device. *)
  let partner_slowdown =
    let fastest =
      List.fold_left (fun acc k -> Float.max acc (Device.get k).Device.base_freq_mhz) 1.0 kinds
    in
    let slowest =
      List.fold_left
        (fun acc k -> Float.min acc (Device.get k).Device.base_freq_mhz)
        infinity kinds
    in
    if slowest = infinity then 1.0 else fastest /. slowest
  in
  let key =
    ( Deepbench.name point,
      tiles,
      List.length nodes,
      Device.kind_name device_kind,
      partner_slowdown,
      added_latency_us,
      policy.Runtime.whole_device )
  in
  match Hashtbl.find_opt service_cache key with
  | Some v -> v
  | None ->
    let device = Device.get device_kind in
    let mem_kind = if device.Device.has_uram then Config.Bram_uram else Config.Bram_only in
    let v =
      if List.length nodes >= 2 then begin
        (* Scale-out across the allocated nodes with the overlap
           optimization. *)
        let parts, per_part =
          scale_out_shape ~hidden:point.Deepbench.hidden ~nodes:(List.length nodes)
            ~tiles
        in
        let cfg = Config.make ~tiles:per_part ~mem_kind () in
        Scale_out.plan_latency_us ~partner_slowdown ~config:cfg ~device
          ~added_latency_us (scale_out_plan point ~parts)
      end
      else begin
        let cfg = Config.make ~tiles ~mem_kind () in
        let program, _ =
          Codegen.generate point.Deepbench.kind ~hidden:point.Deepbench.hidden
            ~input:point.Deepbench.hidden ~timesteps:point.Deepbench.timesteps
        in
        let deploy =
          if policy.Runtime.whole_device then Perf.bare
          else begin
            let vbs =
              List.fold_left
                (fun acc p -> acc + p.Runtime.bitstream.Mlv_vital.Bitstream.vbs)
                0 d.Runtime.placements
            in
            Perf.vital_deploy ~virtual_blocks:vbs ~pattern_aware:true
          end
        in
        (Perf.program_latency cfg device ~deploy program).Perf.total_us
      end
    in
    Hashtbl.replace service_cache key v;
    v

type pending = {
  task : Genset.task;
  accel : string;
  mutable retries : int;
  mutable ready_us : float;
      (* when this attempt entered the queue: arrival for the first
         attempt, re-queue time after a crash retry *)
}

(* An in-service task: enough to interrupt it when its node dies.  The
   completion event stays queued after an interruption (the simulator
   has no cancel), so it checks [cancelled] before acting. *)
type inflight = {
  pend : pending;
  depl : Runtime.deployment;
  mutable cancelled : bool;
}

(* Deployment dimensions for labeled metrics and lifecycle events:
   the primary (first) node and the device kind of the first
   placement. *)
let deployment_dims (d : Runtime.deployment) =
  let node = match Runtime.nodes_used d with n :: _ -> Some n | [] -> None in
  let kind =
    match d.Runtime.placements with
    | p :: _ -> Device.kind_name p.Runtime.bitstream.Mlv_vital.Bitstream.device
    | [] -> "none"
  in
  (node, kind)

(* Closed-loop serving state.  Requests for the same accelerator
   instance form a group; a group owns replicas (live deployments kept
   warm across batches) and a backlog of batches that could not be
   placed yet. *)
type stask = {
  s_task : Genset.task;
  s_deadline_us : float;  (* class SLO deadline; 0 = multiplier rule *)
  s_session : Session.session option;
      (* front-door session (sticky routing, in-order delivery);
         None when sessions are off *)
  s_seq : int;  (* in-session sequence number; 0 when sessions are off *)
  s_compile_us : float;
      (* mapping-compilation time this request pays (cache miss);
         0 on a hit or without a mapping cache *)
}

type replica = {
  r_id : int;
  r_depl : Runtime.deployment;
  r_queue : stask list Queue.t;  (* batches assigned, not yet started *)
  mutable r_busy : bool;
  mutable r_fresh : bool;  (* reconfiguration not yet charged *)
  mutable r_idle_since : float;
  mutable r_epoch : int;
      (* bumped when a preemption cancels the in-flight batch, so the
         already-scheduled completion event recognizes it is void *)
  mutable r_inflight : stask list;  (* the batch currently in service *)
  (* Labeled metric handles cached against the deployment dims they
     were built for; refreshed only when consolidation migrates the
     deployment (so completions stop allocating label lists). *)
  mutable r_node : int option;
  mutable r_kind : string;
  mutable r_completed_c : Obs.Counter.t option;
  mutable r_sojourn_h : Obs.Histogram.t option;
}

type sgroup = {
  g_accel : string;
  g_tracker : Autoscaler.tracker;
  mutable g_replicas : replica list;  (* creation order *)
  g_by_id : (int, replica) Hashtbl.t;  (* g_replicas by id *)
  g_backlog : stask list Queue.t;  (* batches with no replica to run on *)
  mutable g_backlog_tasks : int;  (* Σ batch sizes across g_backlog *)
  mutable g_assigned_tasks : int;  (* Σ batch sizes across replica queues *)
  mutable g_priority : int;
      (* highest tl_priority among tenants that routed work here — the
         conservative "work priority" the preemption policy compares *)
  mutable g_arrivals : int;
      (* admitted requests routed here — the predictive demand signal;
         a pure counter, no effect outside predictive mode *)
  mutable g_last_arrivals : int;  (* g_arrivals at the previous control tick *)
  g_pt : Autoscaler.ptracker option;
      (* per-group rate forecaster (predictive mode only) *)
  g_rate_s : Series.t option;
      (* serve.arrivals.rate{accel=..}: the per-tick admitted-arrival
         rate the forecaster consumes (predictive mode only) *)
}

(* Telemetry scrape loop, shared by both engines.  Ticks ride the
   event queue at absolute times k*interval so series bucket epochs
   align exactly with scrape boundaries.  A tick reschedules only
   while other work remains queued (at execution time the tick itself
   is already off the queue), so a drained run terminates instead of
   the loop keeping itself alive forever. *)
let start_scrape_loop sim ~interval_us f =
  let rec tick k () =
    f ~now_us:(Sim.now sim);
    if Sim.pending sim > 0 then
      Sim.schedule_at sim
        ~at:(float_of_int (k + 1) *. interval_us)
        (tick (k + 1))
  in
  Sim.schedule_at sim ~at:interval_us (tick 1)

(* One scrape's worth of a monotonically growing tally: the delta
   since the previous scrape. *)
let scrape_delta r last =
  let v = !r - !last in
  last := !r;
  float_of_int v

let rec run ~registry cfg =
  (* A completed run releases its simulator's span clock — otherwise
     the closure keeps the whole sim state live and stamps stale sim
     times onto later, unrelated spans. *)
  Fun.protect ~finally:Obs.clear_sim_clock (fun () ->
      Obs.Span.with_ "sysim.run" (fun () ->
          match cfg.serving with
          | Some s ->
            if cfg.faults <> None then
              invalid_arg
                "Sysim.run: serving mode does not compose with fault plans";
            (match cfg.frontend with
            | Some f when f.predict <> None && s.autoscale = None ->
              invalid_arg
                "Sysim.run: frontend.predict requires serving.autoscale"
            | _ -> ());
            run_serving ~registry cfg s
          | None ->
            if cfg.frontend <> None then
              invalid_arg "Sysim.run: config.frontend requires serving mode";
            run_untraced ~registry cfg))

and run_untraced ~registry cfg =
  let cluster = Cluster.create ~kinds:cfg.cluster_kinds () in
  let cache =
    Option.map (fun capacity -> Bitstream.Cache.create ~capacity ()) cfg.bitstream_cache
  in
  let runtime = Runtime.create ~policy:cfg.policy ?cache cluster registry in
  let sim = cluster.Cluster.sim in
  let rng = Rng.create cfg.seed in
  (* Metric handles are interned by name; hoist the string-keyed
     registry lookups out of the per-event closures so the hot path
     emits through direct handles. *)
  let rejected_c = Obs.Counter.get "sysim.tasks.rejected" in
  let completed_c = Obs.Counter.get "sysim.tasks.completed" in
  let retried_c = Obs.Counter.get "sysim.tasks.retried" in
  let arrived_c = Obs.Counter.get "sysim.tasks.arrived" in
  let slo_miss_c = Obs.Counter.get "sysim.slo_misses" in
  let wait_attempt_h = Obs.Histogram.get "sysim.task_wait_attempt_us" in
  let service_h = Obs.Histogram.get "sysim.task_service_us" in
  let wait_h = Obs.Histogram.get "sysim.task_wait_us" in
  let sojourn_h = Obs.Histogram.get "sysim.task_sojourn_us" in
  (* Labeled series are interned by (name, labels); cache the handles
     per dimension value so completions stop allocating label lists. *)
  let completed_node_cs : (int, Obs.Counter.t) Hashtbl.t = Hashtbl.create 32 in
  let completed_node n =
    match Hashtbl.find_opt completed_node_cs n with
    | Some c -> c
    | None ->
      let c =
        Obs.Counter.get_labeled "sysim.tasks.completed"
          [ ("node", string_of_int n) ]
      in
      Hashtbl.replace completed_node_cs n c;
      c
  in
  let sojourn_kind_hs : (string, Obs.Histogram.t) Hashtbl.t = Hashtbl.create 8 in
  let sojourn_kind kind =
    match Hashtbl.find_opt sojourn_kind_hs kind with
    | Some h -> h
    | None ->
      let h = Obs.Histogram.get_labeled "sysim.task_sojourn_us" [ ("kind", kind) ] in
      Hashtbl.replace sojourn_kind_hs kind h;
      h
  in
  let sojourn_kind_node_hs : (string * int, Obs.Histogram.t) Hashtbl.t =
    Hashtbl.create 32
  in
  let sojourn_kind_node kind n =
    match Hashtbl.find_opt sojourn_kind_node_hs (kind, n) with
    | Some h -> h
    | None ->
      let h =
        Obs.Histogram.get_labeled "sysim.task_sojourn_us"
          [ ("kind", kind); ("node", string_of_int n) ]
      in
      Hashtbl.replace sojourn_kind_node_hs (kind, n) h;
      h
  in
  (* The accelerator name is a pure function of the instance size;
     computing it per arrival cost a sprintf per task. *)
  let accel_names : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let accel_of_point point =
    let tiles = instance_for ~policy:cfg.policy point in
    match Hashtbl.find_opt accel_names tiles with
    | Some s -> s
    | None ->
      let s = Framework.accel_name ~tiles in
      Hashtbl.replace accel_names tiles s;
      s
  in
  let tasks = generate_tasks ~rng cfg in
  let ntasks = task_count cfg in
  let multi = cfg.tenants <> [] in
  let tallies = make_tallies cfg in
  let tally_of tenant = if multi then List.assoc_opt tenant tallies else None in
  let queue : pending Queue.t = Queue.create () in
  let inflight : inflight Flight_table.t = Flight_table.create () in
  let completed = ref 0 in
  let retried = ref 0 in
  let rejected = ref 0 in
  let latencies = ref [] in
  let waits = ref [] in
  let attempt_waits = ref [] in
  let services = ref [] in
  let peak_queue = ref 0 in
  let slo_misses = ref 0 in
  let makespan = ref 0.0 in
  (* Fault-window bookkeeping: closed [start, stop] outage intervals
     (≥ 1 node down), plus completions that landed inside one. *)
  let down : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let outage_start = ref None in
  let outages = ref [] in
  let completed_in_outage = ref 0 in
  (* Optional scrape loop: sample windowed series from the run tallies
     each interval, then evaluate the alert rules.  Sampling only
     reads state, so results are identical with telemetry on or off;
     series are cleared at setup so back-to-back runs in one process
     stay independent. *)
  let scrapes = ref 0 in
  let sojourn_s = ref None in
  let alerts =
    Option.map
      (fun tel ->
        let engine = Alert.create tel.rules in
        let iv = tel.scrape_interval_us in
        (* Own the name: a previous run in this process may have
           registered it with a different interval or capacity. *)
        let mk kind name =
          Series.remove name;
          Series.create ~buckets:tel.series_buckets ~kind ~interval_us:iv name
        in
        let completed_s = mk Series.Rate "sysim.completed.rate" in
        let rejected_s = mk Series.Rate "sysim.rejected.rate" in
        let retried_s = mk Series.Rate "sysim.retried.rate" in
        let slo_s = mk Series.Rate "sysim.slo_missed.rate" in
        let queue_s = mk Series.Gauge "sysim.queue_depth" in
        let down_s = mk Series.Gauge "sysim.nodes_down" in
        sojourn_s := Some (mk (Series.Quantile 0.99) "sysim.sojourn_us.p99");
        let tenant_series =
          List.map
            (fun (_, t) ->
              let lbl = [ ("tenant", t.tt_name) ] in
              let mk_l kind name =
                Series.remove (Obs.Labels.key name lbl);
                Series.create_labeled ~buckets:tel.series_buckets ~kind
                  ~interval_us:iv name lbl
              in
              ( t,
                mk_l Series.Rate "sysim.tenant.completed.rate",
                ref 0,
                mk_l Series.Rate "sysim.tenant.slo_missed.rate",
                ref 0 ))
            tallies
        in
        let lc = ref 0 and lr = ref 0 and lt = ref 0 and ls = ref 0 in
        start_scrape_loop sim ~interval_us:iv (fun ~now_us ->
            incr scrapes;
            Series.observe completed_s ~now_us (scrape_delta completed lc);
            Series.observe rejected_s ~now_us (scrape_delta rejected lr);
            Series.observe retried_s ~now_us (scrape_delta retried lt);
            Series.observe slo_s ~now_us (scrape_delta slo_misses ls);
            Series.observe queue_s ~now_us (float_of_int (Queue.length queue));
            Series.observe down_s ~now_us (float_of_int (Hashtbl.length down));
            List.iter
              (fun (t, cs, lc', ss, ls') ->
                Series.observe cs ~now_us (float_of_int (t.tt_completed - !lc'));
                lc' := t.tt_completed;
                Series.observe ss ~now_us (float_of_int (t.tt_slo_misses - !ls'));
                ls' := t.tt_slo_misses)
              tenant_series;
            Alert.eval engine ~now_us);
        engine)
      cfg.telemetry
  in
  let reject (p : pending) =
    incr rejected;
    Obs.Counter.incr rejected_c;
    (match tally_of p.task.Genset.tenant with
    | Some t -> t.tt_rejected <- t.tt_rejected + 1
    | None -> ());
    Obs.Trace.task Obs.Trace.Reject p.task.Genset.task_id ~retries:p.retries
      ~label:p.accel
  in
  let rec try_start () =
    if not (Queue.is_empty queue) then begin
      let p = Queue.peek queue in
      let tenant = if multi then Some p.task.Genset.tenant else None in
      match Runtime.deploy ?tenant runtime ~accel:p.accel with
      | Error _ ->
        (* The head blocks the FIFO queue to avoid starvation — but a
           head that cannot deploy even on an empty, fully healthy
           cluster will never start: reject it instead of stalling the
           queue (and the run's accounting) forever. *)
        if Runtime.deployments runtime = [] && Runtime.failed_nodes runtime = []
        then begin
          ignore (Queue.pop queue);
          reject p;
          try_start ()
        end
      | Ok d ->
        ignore (Queue.pop queue);
        let now = Sim.now sim in
        let node, kind = deployment_dims d in
        Obs.Trace.task Obs.Trace.Deploy p.task.Genset.task_id ?node
          ~deployment:d.Runtime.id ~retries:p.retries ~label:p.accel;
        (* Two wait views: end-to-end (from the task's original
           arrival to the deployment that actually completes, so a
           crash retry accumulates every round of queueing into one
           entry — recorded below, once the service survives) and per
           attempt (from when this attempt entered the queue, recorded
           here).  They differ only for retried tasks. *)
        let wait = now -. p.task.Genset.arrival_us in
        let attempt_wait = now -. p.ready_us in
        attempt_waits := attempt_wait :: !attempt_waits;
        Obs.Histogram.observe wait_attempt_h attempt_wait;
        let service =
          d.Runtime.reconfig_us
          +. (float_of_int cfg.repeats_per_task
             *. service_latency_us ~policy:cfg.policy
                  ~added_latency_us:(Network.added_latency_us cluster.Cluster.network)
                  p.task.Genset.point d)
        in
        services := service :: !services;
        Obs.Histogram.observe service_h service;
        Obs.Trace.task Obs.Trace.Service p.task.Genset.task_id ?node
          ~deployment:d.Runtime.id ~retries:p.retries ~label:p.accel;
        let fl = { pend = p; depl = d; cancelled = false } in
        let fe = Flight_table.add inflight fl ~nodes:(Runtime.nodes_used d) in
        Sim.schedule sim ~delay:service (fun () ->
            if not fl.cancelled then begin
              Flight_table.remove inflight fe;
              Runtime.undeploy runtime d;
              incr completed;
              if Hashtbl.length down > 0 then incr completed_in_outage;
              Obs.Counter.incr completed_c;
              (match node with
              | Some n -> Obs.Counter.incr (completed_node n)
              | None -> ());
              waits := wait :: !waits;
              Obs.Histogram.observe wait_h wait;
              let finished = Sim.now sim in
              let sojourn = finished -. p.task.Genset.arrival_us in
              latencies := sojourn :: !latencies;
              Obs.Histogram.observe sojourn_h sojourn;
              (match !sojourn_s with
              | Some s -> Series.observe s ~now_us:finished sojourn
              | None -> ());
              Obs.Histogram.observe (sojourn_kind kind) sojourn;
              (match node with
              | Some n -> Obs.Histogram.observe (sojourn_kind_node kind n) sojourn
              | None -> ());
              Obs.Trace.task Obs.Trace.Complete p.task.Genset.task_id ?node
                ~deployment:d.Runtime.id ~retries:p.retries ~label:p.accel;
              (* SLO: a task should finish within slo_multiplier x its
                 unqueued service time. *)
              let missed = sojourn > cfg.slo_multiplier *. service in
              if missed then begin
                incr slo_misses;
                Obs.Counter.incr slo_miss_c
              end;
              (match tally_of p.task.Genset.tenant with
              | Some t ->
                t.tt_completed <- t.tt_completed + 1;
                t.tt_latencies <- sojourn :: t.tt_latencies;
                if missed then t.tt_slo_misses <- t.tt_slo_misses + 1;
                Obs.Counter.incr t.tt_completed_c
              | None -> ());
              makespan := Float.max !makespan finished;
              try_start ()
            end);
        try_start ()
    end
  in
  (* Move re-queued tasks to the queue's front: they are the oldest
     work and FIFO order must survive a retry. *)
  let requeue_front ps =
    let tmp = Queue.create () in
    List.iter (fun p -> Queue.add p tmp) ps;
    Queue.transfer queue tmp;
    Queue.transfer tmp queue
  in
  let max_retries =
    match cfg.faults with Some f -> f.max_retries | None -> 0
  in
  let on_crash node =
    Runtime.mark_node_failed runtime node;
    if not (Hashtbl.mem down node) then begin
      if Hashtbl.length down = 0 then outage_start := Some (Sim.now sim);
      Hashtbl.replace down node ()
    end;
    (* Interrupt every in-service task with a piece on the dead node:
       its partial progress is gone, its surviving placements free up,
       and it goes back to the head of the queue — unless it already
       burnt its retry budget, in which case it is rejected rather
       than starving the queue. *)
    let hit =
      List.map Flight_table.value (Flight_table.take_node inflight node)
      |> List.sort (fun a b ->
             compare a.pend.task.Genset.task_id b.pend.task.Genset.task_id)
    in
    List.iter
      (fun fl ->
        fl.cancelled <- true;
        Runtime.undeploy runtime fl.depl;
        Obs.Trace.task Obs.Trace.Crash_interrupt fl.pend.task.Genset.task_id
          ~node ~deployment:fl.depl.Runtime.id ~retries:fl.pend.retries
          ~label:fl.pend.accel)
      hit;
    let again, exhausted =
      List.partition (fun fl -> fl.pend.retries < max_retries) hit
    in
    List.iter
      (fun fl ->
        fl.pend.retries <- fl.pend.retries + 1;
        fl.pend.ready_us <- Sim.now sim;
        incr retried;
        Obs.Counter.incr retried_c;
        Obs.Trace.task Obs.Trace.Retry fl.pend.task.Genset.task_id ~node
          ~retries:fl.pend.retries ~label:fl.pend.accel)
      again;
    requeue_front (List.map (fun fl -> fl.pend) again);
    List.iter (fun fl -> reject fl.pend) exhausted;
    try_start ()
  in
  let on_restore node =
    Runtime.restore_node runtime node;
    if Hashtbl.mem down node then begin
      Hashtbl.remove down node;
      if Hashtbl.length down = 0 then begin
        (match !outage_start with
        | Some t0 -> outages := (t0, Sim.now sim) :: !outages
        | None -> ());
        outage_start := None
      end
    end;
    try_start ()
  in
  let on_degrade us = Network.set_added_latency_us cluster.Cluster.network us in
  List.iter
    (fun (task : Genset.task) ->
      Sim.schedule_at sim ~at:task.Genset.arrival_us (fun () ->
          Obs.Counter.incr arrived_c;
          (match tally_of task.Genset.tenant with
          | Some t -> t.tt_arrived <- t.tt_arrived + 1
          | None -> ());
          let accel = accel_of_point task.Genset.point in
          Obs.Trace.task Obs.Trace.Arrive task.Genset.task_id ~label:accel;
          Queue.add
            { task; accel; retries = 0; ready_us = task.Genset.arrival_us }
            queue;
          Obs.Trace.task Obs.Trace.Queue task.Genset.task_id ~label:accel;
          peak_queue := max !peak_queue (Queue.length queue);
          try_start ()))
    tasks;
  (match cfg.faults with
  | None -> ()
  | Some f ->
    (match Fault_plan.validate f.plan ~nodes:(Cluster.node_count cluster) with
    | Ok () -> ()
    | Error e -> invalid_arg ("Sysim.run: " ^ e));
    Fault_plan.schedule f.plan sim ~on_crash ~on_restore ~on_degrade);
  let loop_t0 = Obs.wall_us () in
  Sim.run sim;
  let loop_wall_s = (Obs.wall_us () -. loop_t0) /. 1e6 in
  (* Tasks still queued when the events drained could not be served
     (e.g. a crash that was never restored): reject them so every
     task is accounted for instead of silently starving. *)
  Queue.iter reject queue;
  Queue.clear queue;
  (match !outage_start with
  | Some t0 ->
    outages := (t0, Sim.now sim) :: !outages;
    outage_start := None
  | None -> ());
  let lost = ntasks - !completed - !rejected in
  if lost > 0 then
    Obs.Counter.add (Obs.Counter.get "sysim.tasks.lost") lost;
  let mean xs = Mlv_util.Stats.mean xs in
  let p50, p95, p99 = latency_percentiles !latencies in
  let fault_downtime_us =
    List.fold_left (fun acc (t0, t1) -> acc +. (t1 -. t0)) 0.0 !outages
  in
  (* Throughput outside the fault window: completions that landed
     while every node was up, over the makespan minus the downtime
     overlapping it. *)
  let downtime_in_makespan =
    List.fold_left
      (fun acc (t0, t1) -> acc +. Float.max 0.0 (Float.min t1 !makespan -. t0))
      0.0 !outages
  in
  let fault_free_throughput_per_s =
    let up_time = !makespan -. downtime_in_makespan in
    if fault_downtime_us = 0.0 then
      if !makespan > 0.0 then float_of_int !completed /. (!makespan /. 1e6) else 0.0
    else if up_time > 0.0 then
      float_of_int (!completed - !completed_in_outage) /. (up_time /. 1e6)
    else 0.0
  in
  {
    completed = !completed;
    retried = !retried;
    rejected = !rejected;
    shed = 0;
    lost;
    makespan_us = !makespan;
    throughput_per_s =
      (if !makespan > 0.0 then float_of_int !completed /. (!makespan /. 1e6) else 0.0);
    goodput_per_s =
      (if !makespan > 0.0 then
         float_of_int (!completed - !slo_misses) /. (!makespan /. 1e6)
       else 0.0);
    fault_downtime_us;
    fault_free_throughput_per_s;
    mean_latency_us = mean !latencies;
    mean_wait_us = mean !waits;
    wait_attempts = List.length !attempt_waits;
    mean_wait_per_attempt_us = mean !attempt_waits;
    mean_service_us = mean !services;
    p50_latency_us = p50;
    p95_latency_us = p95;
    p99_latency_us = p99;
    peak_queue = !peak_queue;
    latencies_us = List.rev !latencies;
    slo_misses = !slo_misses;
    batches = 0;
    scale_ups = 0;
    scale_downs = 0;
    preempted = 0;
    preemptions = 0;
    defrag_moves = 0;
    cache_hits = fst (cache_stats runtime);
    cache_misses = snd (cache_stats runtime);
    sessions_opened = 0;
    sessions_expired = 0;
    sticky_hits = 0;
    sticky_misses = 0;
    held_results = 0;
    mapcache_hits = 0;
    mapcache_misses = 0;
    mapcache_evictions = 0;
    per_tenant = tenant_stats_of ~makespan_us:!makespan tallies;
    scrapes = !scrapes;
    alert_transitions =
      (match alerts with Some e -> Alert.transitions e | None -> []);
    loop_wall_s;
  }

(* Closed-loop serving: admission gate -> batcher -> router ->
   replicas, with an optional autoscaler control loop on the sim
   clock.  Fault plans are rejected up front (see [run]); every task
   ends as completed, shed or rejected. *)
and run_serving ~registry cfg serving =
  let cluster = Cluster.create ~kinds:cfg.cluster_kinds () in
  let cache =
    Option.map (fun capacity -> Bitstream.Cache.create ~capacity ()) cfg.bitstream_cache
  in
  let runtime = Runtime.create ~policy:cfg.policy ?cache cluster registry in
  let sim = cluster.Cluster.sim in
  let rng = Rng.create cfg.seed in
  (* Same hoist as [run_untraced]: per-task/per-batch emit sites use
     direct metric handles instead of string-keyed registry lookups. *)
  let rejected_c = Obs.Counter.get "sysim.tasks.rejected" in
  let completed_c = Obs.Counter.get "sysim.tasks.completed" in
  let arrived_c = Obs.Counter.get "sysim.tasks.arrived" in
  let slo_miss_c = Obs.Counter.get "sysim.slo_misses" in
  let batches_c = Obs.Counter.get "sysim.serving.batches" in
  let shed_c = Obs.Counter.get "sysim.serving.shed" in
  let wait_attempt_h = Obs.Histogram.get "sysim.task_wait_attempt_us" in
  let service_h = Obs.Histogram.get "sysim.task_service_us" in
  let wait_h = Obs.Histogram.get "sysim.task_wait_us" in
  let sojourn_h = Obs.Histogram.get "sysim.task_sojourn_us" in
  (* Accelerator names are a pure function of the instance size; see
     the identical cache in [run_untraced]. *)
  let accel_names : (int, string) Hashtbl.t = Hashtbl.create 16 in
  let accel_of_point point =
    let tiles = instance_for ~policy:cfg.policy point in
    match Hashtbl.find_opt accel_names tiles with
    | Some s -> s
    | None ->
      let s = Framework.accel_name ~tiles in
      Hashtbl.replace accel_names tiles s;
      s
  in
  let tasks = generate_tasks ~rng cfg in
  let ntasks = task_count cfg in
  let multi = cfg.tenants <> [] in
  let tallies = make_tallies cfg in
  let tally_of tenant = if multi then List.assoc_opt tenant tallies else None in
  let gate = Slo.create serving.classes in
  (match serving.tenant_pool with
  | None -> ()
  | Some (rate_per_s, burst) ->
    if not multi then
      invalid_arg "Sysim.run: serving.tenant_pool requires config.tenants";
    Slo.set_tenant_pool gate ~rate_per_s ~burst
      (List.map
         (fun (l : Genset.tenant_load) ->
           Slo.tenant_spec ~weight:l.Genset.tl_weight
             ~priority:l.Genset.tl_priority l.Genset.tl_name)
         cfg.tenants));
  (* Tenant priorities drive the preemption policy; a run without
     positive priorities (every single-tenant run) never preempts. *)
  let tenant_prio : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (l : Genset.tenant_load) ->
      Hashtbl.replace tenant_prio l.Genset.tl_name l.Genset.tl_priority)
    cfg.tenants;
  let prio_of tenant =
    match Hashtbl.find_opt tenant_prio tenant with Some p -> p | None -> 0
  in
  let batch_priority batch =
    List.fold_left (fun a st -> max a (prio_of st.s_task.Genset.tenant)) 0 batch
  in
  (* The serving front door: all-None (the default) takes none of the
     branches below and is bit-identical to a build without it. *)
  let fe = match cfg.frontend with Some f -> f | None -> default_frontend in
  let sessions = Option.map Session.create fe.sessions in
  let mapcache =
    Option.map
      (fun (capacity, compile_us) -> (Mapcache.create ~capacity (), compile_us))
      fe.mapping_cache
  in
  (* Shape signatures are a pure function of the registered plan;
     memoized so the admission path pays one hash lookup. *)
  let shape_sigs : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let shape_sig_of accel =
    match Hashtbl.find_opt shape_sigs accel with
    | Some s -> s
    | None ->
      let s =
        match Registry.plan registry accel with
        | Some p -> Mapdb.shape_signature p
        | None -> accel
      in
      Hashtbl.replace shape_sigs accel s;
      s
  in
  (* Interned lazily: a run that never preempts registers no
     preemption metrics. *)
  let preempted_task_c = lazy (Obs.Counter.get "sysim.serving.preempted") in
  let preemption_c = lazy (Obs.Counter.get "sysim.serving.preemptions") in
  let batcher : stask Batcher.t =
    Batcher.create
      ?tenant_of:(if multi then Some (fun st -> st.s_task.Genset.tenant) else None)
      serving.batch
  in
  let router = Router.create () in
  let groups : (string, sgroup) Hashtbl.t = Hashtbl.create 8 in
  (* Group names ascending, maintained on creation (groups are never
     destroyed): decisions iterate groups in this order, never in
     Hashtbl order, to stay deterministic. *)
  let sorted_keys = ref [] in
  let insert_key k =
    let rec ins = function
      | [] -> [ k ]
      | x :: rest as l -> if k < x then k :: l else x :: ins rest
    in
    sorted_keys := ins !sorted_keys
  in
  (* Groups whose backlog is non-empty: the per-completion pump only
     looks at these instead of sweeping every group. *)
  let starved : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let busy_count = ref 0 in
  let next_replica_id = ref 0 in
  let completed = ref 0 in
  let rejected = ref 0 in
  let shed = ref 0 in
  let preempted = ref 0 in
  let preemptions = ref 0 in
  let defrag_moves = ref 0 in
  let arrivals_in = ref 0 in
  let scale_ups = ref 0 in
  let scale_downs = ref 0 in
  let latencies = ref [] in
  let waits = ref [] in
  let services = ref [] in
  let slo_misses = ref 0 in
  let makespan = ref 0.0 in
  let queued = ref 0 in
  let peak_queue = ref 0 in
  let group_of accel =
    match Hashtbl.find_opt groups accel with
    | Some g -> g
    | None ->
      let g =
        {
          g_accel = accel;
          g_tracker = Autoscaler.tracker ~name:("sojourn." ^ accel);
          g_replicas = [];
          g_by_id = Hashtbl.create 8;
          g_backlog = Queue.create ();
          g_backlog_tasks = 0;
          g_assigned_tasks = 0;
          g_priority = 0;
          g_arrivals = 0;
          g_last_arrivals = 0;
          g_pt = Option.map Autoscaler.ptracker fe.predict;
          g_rate_s =
            (match (fe.predict, serving.autoscale) with
            | Some _, Some acfg ->
              let lbl = [ ("accel", accel) ] in
              (* Own the name: a previous run in this process may have
                 registered it with a different interval. *)
              Series.remove (Obs.Labels.key "serve.arrivals.rate" lbl);
              Some
                (Series.create_labeled ~buckets:512 ~kind:Series.Gauge
                   ~interval_us:acfg.interval_us "serve.arrivals.rate" lbl)
            | _ -> None);
        }
      in
      Hashtbl.replace groups accel g;
      insert_key accel;
      g
  in
  (* Optional scrape loop; the serving twin of the open-loop setup.
     The autoscaler tick additionally samples its observed backlog
     into [sysim.autoscale.backlog] (see the tick below). *)
  let scrapes = ref 0 in
  let sojourn_s = ref None in
  let autoscale_backlog_s = ref None in
  let alerts =
    Option.map
      (fun tel ->
        let engine = Alert.create tel.rules in
        let iv = tel.scrape_interval_us in
        (* Own the name: a previous run in this process may have
           registered it with a different interval or capacity. *)
        let mk kind name =
          Series.remove name;
          Series.create ~buckets:tel.series_buckets ~kind ~interval_us:iv name
        in
        let completed_s = mk Series.Rate "sysim.completed.rate" in
        let rejected_s = mk Series.Rate "sysim.rejected.rate" in
        let shed_s = mk Series.Rate "sysim.shed.rate" in
        let slo_s = mk Series.Rate "sysim.slo_missed.rate" in
        let queue_s = mk Series.Gauge "sysim.queue_depth" in
        let replicas_s = mk Series.Gauge "sysim.replicas" in
        sojourn_s := Some (mk (Series.Quantile 0.99) "sysim.sojourn_us.p99");
        autoscale_backlog_s := Some (mk Series.Gauge "sysim.autoscale.backlog");
        let tenant_series =
          List.map
            (fun (_, t) ->
              let lbl = [ ("tenant", t.tt_name) ] in
              let mk_l kind name =
                Series.remove (Obs.Labels.key name lbl);
                Series.create_labeled ~buckets:tel.series_buckets ~kind
                  ~interval_us:iv name lbl
              in
              ( t,
                mk_l Series.Rate "sysim.tenant.completed.rate",
                ref 0,
                mk_l Series.Rate "sysim.tenant.slo_missed.rate",
                ref 0 ))
            tallies
        in
        let lc = ref 0 and lr = ref 0 and lsh = ref 0 and ls = ref 0 in
        start_scrape_loop sim ~interval_us:iv (fun ~now_us ->
            incr scrapes;
            Series.observe completed_s ~now_us (scrape_delta completed lc);
            Series.observe rejected_s ~now_us (scrape_delta rejected lr);
            Series.observe shed_s ~now_us (scrape_delta shed lsh);
            Series.observe slo_s ~now_us (scrape_delta slo_misses ls);
            Series.observe queue_s ~now_us (float_of_int !queued);
            Series.observe replicas_s ~now_us
              (float_of_int
                 (List.fold_left
                    (fun acc k ->
                      acc + List.length (Hashtbl.find groups k).g_replicas)
                    0 !sorted_keys));
            List.iter
              (fun (t, cs, lc', ss, ls') ->
                Series.observe cs ~now_us (float_of_int (t.tt_completed - !lc'));
                lc' := t.tt_completed;
                Series.observe ss ~now_us (float_of_int (t.tt_slo_misses - !ls'));
                ls' := t.tt_slo_misses)
              tenant_series;
            Alert.eval engine ~now_us);
        engine)
      cfg.telemetry
  in
  let backlog_push g batch =
    Queue.add batch g.g_backlog;
    g.g_backlog_tasks <- g.g_backlog_tasks + List.length batch;
    Hashtbl.replace starved g.g_accel ()
  in
  let backlog_pop g =
    let b = Queue.pop g.g_backlog in
    g.g_backlog_tasks <- g.g_backlog_tasks - List.length b;
    if Queue.is_empty g.g_backlog then Hashtbl.remove starved g.g_accel;
    b
  in
  let reject_stask ~accel (st : stask) =
    incr rejected;
    decr queued;
    Obs.Counter.incr rejected_c;
    (match tally_of st.s_task.Genset.tenant with
    | Some t -> t.tt_rejected <- t.tt_rejected + 1
    | None -> ());
    (* A rejected seq must not block its session's in-order stream. *)
    (match (sessions, st.s_session) with
    | Some stbl, Some sess ->
      Session.skip stbl sess ~seq:st.s_seq ~now_us:(Sim.now sim)
    | _ -> ());
    Obs.Trace.task Obs.Trace.Reject st.s_task.Genset.task_id ~retries:0
      ~label:accel
  in
  let reject_backlog g =
    Queue.iter (fun b -> List.iter (reject_stask ~accel:g.g_accel) b) g.g_backlog;
    Queue.clear g.g_backlog;
    g.g_backlog_tasks <- 0;
    Hashtbl.remove starved g.g_accel
  in
  let is_idle r = (not r.r_busy) && Queue.is_empty r.r_queue in
  (* Longest-idle idle replica in any other group (tie: lowest replica
     id via the sorted iteration order) — the reclaim candidate when a
     starved group cannot deploy. *)
  let reclaim_candidate ~excluding =
    List.fold_left
      (fun best k ->
        if k = excluding then best
        else
          let g' = Hashtbl.find groups k in
          List.fold_left
            (fun best r ->
              if not (is_idle r) then best
              else
                match best with
                | Some (_, br) when br.r_idle_since <= r.r_idle_since -> best
                | _ -> Some (g', r))
            best g'.g_replicas)
      None !sorted_keys
  in
  let remove_replica g r =
    Router.remove_replica router ~key:g.g_accel ~replica_id:r.r_id;
    g.g_replicas <- List.filter (fun x -> x != r) g.g_replicas;
    Hashtbl.remove g.g_by_id r.r_id;
    Runtime.undeploy runtime r.r_depl
  in
  let make_replica g d =
    let id = !next_replica_id in
    incr next_replica_id;
    let r =
      {
        r_id = id;
        r_depl = d;
        r_queue = Queue.create ();
        r_busy = false;
        r_fresh = true;
        r_idle_since = Sim.now sim;
        r_epoch = 0;
        r_inflight = [];
        r_node = None;
        r_kind = "";
        r_completed_c = None;
        r_sojourn_h = None;
      }
    in
    Router.add_replica router ~key:g.g_accel ~replica_id:id ~weight:1.0;
    g.g_replicas <- g.g_replicas @ [ r ];
    Hashtbl.replace g.g_by_id id r;
    incr scale_ups;
    Obs.Counter.incr (Obs.Counter.get "sysim.serving.scale_up");
    Autoscaler.mark_scaled g.g_tracker ~now_us:(Sim.now sim);
    r
  in
  (* Add a replica to [g]: deploy, optionally reclaiming idle replicas
     from other groups until the deploy fits.  [`Dead] means the accel
     can never deploy: nothing is busy, nothing is left to reclaim,
     and the mapper still refuses — mirror the open loop and reject
     rather than wait forever. *)
  let rec grow g ~allow_reclaim =
    match Runtime.deploy runtime ~accel:g.g_accel with
    | Ok d ->
      ignore (make_replica g d);
      `Ok
    | Error _ ->
      if allow_reclaim then
        match reclaim_candidate ~excluding:g.g_accel with
        | Some (g', r) ->
          Obs.Counter.incr (Obs.Counter.get "sysim.serving.reclaimed");
          remove_replica g' r;
          grow g ~allow_reclaim
        | None -> if !busy_count > 0 then `Full else `Dead
      else if !busy_count > 0 || g.g_replicas <> [] then `Full
      else if reclaim_candidate ~excluding:g.g_accel = None then `Dead
      else `Full
  in
  (* Push batches at the FRONT of the backlog: a preempted victim's
     queued work is its oldest, and FIFO order must survive the
     eviction. *)
  let backlog_push_front g batches =
    if batches <> [] then begin
      let tmp = Queue.create () in
      List.iter
        (fun b ->
          Queue.add b tmp;
          g.g_backlog_tasks <- g.g_backlog_tasks + List.length b)
        batches;
      Queue.transfer g.g_backlog tmp;
      Queue.transfer tmp g.g_backlog;
      Hashtbl.replace starved g.g_accel ()
    end
  in
  (* Victim for a priority preemption: any replica of a group whose
     work priority is below the demanding batch's — lowest priority
     first, idle before queued before busy, then lowest replica id
     (the deterministic tie-break). *)
  let preempt_candidate ~excluding ~prio =
    List.fold_left
      (fun best k ->
        if k = excluding then best
        else
          let g' = Hashtbl.find groups k in
          if g'.g_priority >= prio then best
          else
            List.fold_left
              (fun best r ->
                let rank =
                  if is_idle r then 0 else if not r.r_busy then 1 else 2
                in
                let key = (g'.g_priority, rank, r.r_id) in
                match best with
                | Some (bkey, _, _) when bkey <= key -> best
                | _ -> Some (key, g', r))
              best g'.g_replicas)
      None !sorted_keys
  in
  (* Evict a victim replica: cancel its in-flight batch (those tasks
     are preempted losses, closing the per-tenant identity
     arrived = completed + shed + rejected + preempted), requeue its
     untouched batches at the front of its own group's backlog, and
     undeploy. *)
  let preempt_replica g' r ~now =
    if r.r_busy then begin
      r.r_epoch <- r.r_epoch + 1 (* orphan the scheduled completion *);
      r.r_busy <- false;
      decr busy_count;
      List.iter
        (fun (st : stask) ->
          incr preempted;
          Obs.Counter.incr (Lazy.force preempted_task_c);
          (match (sessions, st.s_session) with
          | Some stbl, Some sess ->
            Session.skip stbl sess ~seq:st.s_seq ~now_us:now
          | _ -> ());
          match tally_of st.s_task.Genset.tenant with
          | Some t -> t.tt_preempted <- t.tt_preempted + 1
          | None -> ())
        r.r_inflight;
      r.r_inflight <- []
    end;
    let qbatches = List.rev (Queue.fold (fun acc b -> b :: acc) [] r.r_queue) in
    Queue.clear r.r_queue;
    List.iter
      (fun b -> g'.g_assigned_tasks <- g'.g_assigned_tasks - List.length b)
      qbatches;
    backlog_push_front g' qbatches;
    remove_replica g' r;
    incr preemptions;
    Obs.Counter.incr (Lazy.force preemption_c);
    Autoscaler.mark_scaled g'.g_tracker ~now_us:now
  in
  (* An accelerator that cannot deploy even on an empty, fully
     healthy cluster must never trigger an eviction — the freed space
     could not satisfy it anyway.  Probed once per accelerator on a
     scratch clone of the configured cluster and memoized. *)
  let feasible_cache : (string, bool) Hashtbl.t = Hashtbl.create 8 in
  let feasible accel =
    match Hashtbl.find_opt feasible_cache accel with
    | Some b -> b
    | None ->
      let scratch =
        Runtime.create ~policy:cfg.policy
          (Cluster.create ~kinds:cfg.cluster_kinds ())
          registry
      in
      let b =
        match Runtime.deploy scratch ~accel with Ok _ -> true | Error _ -> false
      in
      Hashtbl.replace feasible_cache accel b;
      b
  in
  (* Admission with preemption: when the mapper refuses and the
     demanding batch carries tenant priority, evict lower-priority
     work.  An idle victim is first relocated (force-migrate; the
     rollback guarantee keeps it live on failure) in case a denser
     packing alone frees the needed device; a victim that stays in
     the way is undeployed.  [tried] lists replicas already relocated
     so none relocates twice — every step then either grows [tried]
     (bounded by the replica count) or evicts a replica, so the loop
     terminates. *)
  let rec grow_preempting g ~prio ~tried =
    match grow g ~allow_reclaim:(serving.autoscale <> None) with
    | (`Ok | `Dead) as outcome -> outcome
    | `Full when not (feasible g.g_accel) -> `Dead
    | `Full -> (
      match preempt_candidate ~excluding:g.g_accel ~prio with
      | None -> `Full
      | Some (_, g', r) ->
        if
          (not (List.mem r.r_id tried))
          && is_idle r
          &&
          match Runtime.migrate ~force:true runtime r.r_depl with
          | Ok m -> m > 0
          | Error _ -> false
        then grow_preempting g ~prio ~tried:(r.r_id :: tried)
        else begin
          preempt_replica g' r ~now:(Sim.now sim);
          grow_preempting g ~prio ~tried
        end)
  in
  (* Route a batch onto a replica: router bookkeeping (plus per-tenant
     attribution) and the queue append, with the group's assigned-task
     counter kept in step. *)
  let assign g r batch =
    let n = List.length batch in
    Router.begin_work router ~key:g.g_accel ~replica_id:r.r_id n;
    if multi then
      List.iter
        (fun st -> Router.note_routed router ~tenant:st.s_task.Genset.tenant 1)
        batch;
    g.g_assigned_tasks <- g.g_assigned_tasks + n;
    Queue.add batch r.r_queue
  in
  (* Refresh the replica's cached labeled handles when the deployment
     dims changed (consolidation migrates idle replicas); the counter
     is created before the histogram to keep registry creation order
     identical to the per-completion lookups this replaces. *)
  let replica_handles r node kind =
    if r.r_sojourn_h = None || r.r_node <> node || r.r_kind <> kind then begin
      r.r_node <- node;
      r.r_kind <- kind;
      r.r_completed_c <-
        (match node with
        | Some n ->
          Some
            (Obs.Counter.get_labeled "sysim.tasks.completed"
               [ ("node", string_of_int n) ])
        | None -> None);
      r.r_sojourn_h <-
        Some (Obs.Histogram.get_labeled "sysim.task_sojourn_us" [ ("kind", kind) ])
    end
  in
  let rec start_replica g r =
    if (not r.r_busy) && not (Queue.is_empty r.r_queue) then begin
      let batch = Queue.pop r.r_queue in
      g.g_assigned_tasks <- g.g_assigned_tasks - List.length batch;
      r.r_busy <- true;
      incr busy_count;
      r.r_inflight <- batch;
      let epoch = r.r_epoch in
      let now = Sim.now sim in
      let d = r.r_depl in
      let node, kind = deployment_dims d in
      let added = Network.added_latency_us cluster.Cluster.network in
      let reconfig = if r.r_fresh then d.Runtime.reconfig_us else 0.0 in
      r.r_fresh <- false;
      let n = List.length batch in
      let per_task =
        List.map
          (fun st ->
            float_of_int cfg.repeats_per_task
            *. service_latency_us ~policy:cfg.policy ~added_latency_us:added
                 st.s_task.Genset.point d)
          batch
      in
      (* Mapping-cache misses pay their compilation on the batch, like
         reconfiguration does; all-hit (or cacheless) batches add an
         exact 0.0, keeping service times bit-identical. *)
      let compile = List.fold_left (fun a st -> a +. st.s_compile_us) 0.0 batch in
      let service = reconfig +. compile +. List.fold_left ( +. ) 0.0 per_task in
      List.iter2
        (fun st svc ->
          decr queued;
          let id = st.s_task.Genset.task_id in
          Obs.Trace.task Obs.Trace.Deploy id ?node ~deployment:d.Runtime.id
            ~retries:0 ~label:g.g_accel;
          (* No retries in serving mode: per-attempt and end-to-end
             waits coincide. *)
          let wait = now -. st.s_task.Genset.arrival_us in
          waits := wait :: !waits;
          Obs.Histogram.observe wait_h wait;
          Obs.Histogram.observe wait_attempt_h
            wait;
          (* Reconfiguration (and compilation) amortizes across the
             batch. *)
          let task_service = svc +. ((reconfig +. compile) /. float_of_int n) in
          services := task_service :: !services;
          Obs.Histogram.observe service_h
            task_service;
          (match g.g_pt with
          | Some pt -> Autoscaler.observe_service pt task_service
          | None -> ());
          Obs.Trace.task Obs.Trace.Service id ?node ~deployment:d.Runtime.id
            ~retries:0 ~label:g.g_accel)
        batch per_task;
      Sim.schedule sim ~delay:service (fun () ->
          (* A preemption during service bumped the epoch: the replica
             is gone and its batch was already counted as preempted —
             this completion is void. *)
          if r.r_epoch = epoch then begin
          let finished = Sim.now sim in
          r.r_busy <- false;
          decr busy_count;
          r.r_inflight <- [];
          r.r_idle_since <- finished;
          Router.end_work router ~key:g.g_accel ~replica_id:r.r_id n;
          replica_handles r node kind;
          let sojourn_kind_h =
            match r.r_sojourn_h with Some h -> h | None -> assert false
          in
          (* One task's result delivery.  Without sessions it runs
             inline at [finished]; with sessions it routes through the
             in-order stream, so a held result is delivered (and
             timed) at the releasing event's clock. *)
          let record (st : stask) svc ~finished =
            incr completed;
            Obs.Counter.incr completed_c;
            (match r.r_completed_c with
            | Some c -> Obs.Counter.incr c
            | None -> ());
            let sojourn = finished -. st.s_task.Genset.arrival_us in
            latencies := sojourn :: !latencies;
            Obs.Histogram.observe sojourn_h
              sojourn;
            (match !sojourn_s with
            | Some s -> Series.observe s ~now_us:finished sojourn
            | None -> ());
            Obs.Histogram.observe sojourn_kind_h sojourn;
            Autoscaler.observe_sojourn g.g_tracker sojourn;
            Obs.Trace.task Obs.Trace.Complete st.s_task.Genset.task_id ?node
              ~deployment:d.Runtime.id ~retries:0 ~label:g.g_accel;
            let task_service = svc +. ((reconfig +. compile) /. float_of_int n) in
            let deadline =
              if st.s_deadline_us > 0.0 then st.s_deadline_us
              else cfg.slo_multiplier *. task_service
            in
            let missed = sojourn > deadline in
            if missed then begin
              incr slo_misses;
              Obs.Counter.incr slo_miss_c
            end;
            makespan := Float.max !makespan finished;
            match tally_of st.s_task.Genset.tenant with
            | Some t ->
              t.tt_completed <- t.tt_completed + 1;
              t.tt_latencies <- sojourn :: t.tt_latencies;
              if missed then t.tt_slo_misses <- t.tt_slo_misses + 1;
              Obs.Counter.incr t.tt_completed_c
            | None -> ()
          in
          (match sessions with
          | None ->
            List.iter2 (fun st svc -> record st svc ~finished) batch per_task
          | Some stbl ->
            List.iter2
              (fun st svc ->
                match st.s_session with
                | Some sess ->
                  Session.complete stbl sess ~seq:st.s_seq ~now_us:finished
                    (fun ~now_us -> record st svc ~finished:now_us)
                | None -> record st svc ~finished)
              batch per_task);
          makespan := Float.max !makespan finished;
          if Queue.is_empty r.r_queue && not (Queue.is_empty g.g_backlog)
          then assign g r (backlog_pop g);
          start_replica g r;
          pump_all ()
          end)
    end
  (* A completion anywhere may unblock a starved group: retry
     bootstrap deploys for groups whose backlog has no replica.  The
     maintained starved set makes this O(1) when nothing is starved,
     O(starved log starved) otherwise, instead of sweeping every group
     per completion. *)
  and pump_all () =
    if Hashtbl.length starved > 0 then
      Hashtbl.fold (fun k () acc -> k :: acc) starved []
      |> List.sort compare
      |> List.iter (fun k -> pump_group (Hashtbl.find groups k))
  and pump_group g =
    if not (Queue.is_empty g.g_backlog) then begin
      match Router.pick router ~key:g.g_accel with
      | Some rid ->
        let r = Hashtbl.find g.g_by_id rid in
        if is_idle r then begin
          assign g r (backlog_pop g);
          start_replica g r;
          pump_group g
        end
      | None -> (
        match grow g ~allow_reclaim:false with
        | `Ok -> pump_group g
        | `Dead -> reject_backlog g
        | `Full -> ())
    end
  in
  (* Sticky routing: a batch whose head belongs to a session goes back
     to the replica that served that session last (warm weights, warm
     cache) when it is still alive; otherwise the router picks and the
     choice becomes the session's new affinity.  Without sessions this
     is exactly [Router.pick]. *)
  let sticky_pick g batch =
    match sessions with
    | None -> Router.pick router ~key:g.g_accel
    | Some stbl -> (
      match batch with
      | { s_session = Some sess; _ } :: _ -> (
        match Session.affinity sess ~accel:g.g_accel with
        | Some rid when Hashtbl.mem g.g_by_id rid ->
          Session.note_sticky stbl true;
          Some rid
        | _ -> (
          match Router.pick router ~key:g.g_accel with
          | Some rid ->
            Session.note_sticky stbl false;
            Session.set_affinity sess ~accel:g.g_accel ~replica:rid;
            Some rid
          | None -> None))
      | _ -> Router.pick router ~key:g.g_accel)
  in
  let rec dispatch g batch =
    Obs.Counter.incr batches_c;
    match sticky_pick g batch with
    | Some rid ->
      let r = Hashtbl.find g.g_by_id rid in
      assign g r batch;
      start_replica g r
    | None -> (
      let prio = if serving.preempt then batch_priority batch else 0 in
      let outcome =
        if prio > 0 then grow_preempting g ~prio ~tried:[]
        else grow g ~allow_reclaim:(serving.autoscale <> None)
      in
      match outcome with
      | `Ok -> dispatch g batch
      | `Full -> backlog_push g batch
      | `Dead -> List.iter (reject_stask ~accel:g.g_accel) batch)
  in
  (* Scale-down takes the group's longest-idle idle replica, then
     tries to consolidate a surviving idle multi-piece replica into a
     denser packing (the mapping search sees the freed space). *)
  let scale_down g ~now =
    let victim =
      List.fold_left
        (fun best r ->
          if not (is_idle r) then best
          else
            match best with
            | Some (b : replica) when b.r_idle_since <= r.r_idle_since -> best
            | _ -> Some r)
        None g.g_replicas
    in
    match victim with
    | None -> ()
    | Some r ->
      remove_replica g r;
      incr scale_downs;
      Obs.Counter.incr (Obs.Counter.get "sysim.serving.scale_down");
      Autoscaler.mark_scaled g.g_tracker ~now_us:now;
      List.iter
        (fun r' ->
          if
            is_idle r'
            && List.length r'.r_depl.Runtime.placements > 1
          then
            match Runtime.migrate ~force:true runtime r'.r_depl with
            | Ok m when m > 0 ->
              Obs.Counter.incr (Obs.Counter.get "sysim.serving.consolidated")
            | Ok _ | Error _ -> ())
        g.g_replicas
  in
  (match serving.autoscale with
  | None -> ()
  | Some acfg ->
    let min_priority () =
      List.fold_left
        (fun acc (c : Slo.class_spec) -> min acc c.priority)
        max_int (Slo.classes gate)
    in
    let rec tick () =
      if !completed + !rejected + !shed + !preempted < ntasks then begin
        let now = Sim.now sim in
        let capacity_bound = ref false in
        let total_backlog = ref 0 in
        List.iter
          (fun k ->
            let g = Hashtbl.find groups k in
            let backlog =
              Batcher.pending batcher ~key:k + g.g_backlog_tasks
              + g.g_assigned_tasks
            in
            total_backlog := !total_backlog + backlog;
            let replicas = List.length g.g_replicas in
            let idle =
              List.length
                (List.filter
                   (fun r ->
                     is_idle r && now -. r.r_idle_since >= acfg.idle_timeout_us)
                   g.g_replicas)
            in
            (* Predictive mode feeds the tick's admitted-arrival rate
               to the forecaster and grows toward its target in one
               tick; reactive mode keeps the one-step watermark rules
               (its target is the current size, so the growth loop
               below runs exactly once — the pre-front-door shape). *)
            let decision, target =
              match (g.g_pt, fe.predict) with
              | Some pt, Some p ->
                let delta = g.g_arrivals - g.g_last_arrivals in
                g.g_last_arrivals <- g.g_arrivals;
                let rate = float_of_int delta /. (acfg.interval_us /. 1e6) in
                (match g.g_rate_s with
                | Some s -> Series.observe s ~now_us:now rate
                | None -> ());
                Autoscaler.observe_rate pt rate;
                Autoscaler.decide_predictive acfg p g.g_tracker pt ~now_us:now
                  ~backlog ~replicas ~idle
                  ~deadline_us:(Slo.min_deadline_us gate)
              | _ ->
                ( Autoscaler.decide acfg g.g_tracker ~now_us:now ~backlog
                    ~replicas ~idle ~deadline_us:(Slo.min_deadline_us gate),
                  replicas )
            in
            match decision with
            | Autoscaler.Scale_up ->
              let rec grow_n k =
                if k > 0 then
                  match grow g ~allow_reclaim:true with
                  | `Ok ->
                    pump_group g;
                    grow_n (k - 1)
                  | `Full -> capacity_bound := true
                  | `Dead -> reject_backlog g
              in
              grow_n (max 1 (target - replicas))
            | Autoscaler.Scale_down -> scale_down g ~now
            | Autoscaler.Hold -> ())
          !sorted_keys;
        (* Capacity-bound: shed the lowest-priority class at the gate
           until a tick passes without an unsatisfied scale-up. *)
        if !capacity_bound && Slo.classes gate <> [] then
          Slo.set_shed_below gate (min_priority () + 1)
        else Slo.set_shed_below gate min_int;
        (match !autoscale_backlog_s with
        | Some s -> Series.observe s ~now_us:now (float_of_int !total_backlog)
        | None -> ());
        Sim.schedule sim ~delay:acfg.interval_us tick
      end
    in
    Sim.schedule sim ~delay:acfg.interval_us tick);
  (* Background defragmentation: a periodic tick that compacts idle
     replicas when the fleet is quiet (no backlog anywhere) and the
     fragmentation index crosses the policy threshold.  In-flight
     batches are never moved — only deployments of idle replicas are
     eligible. *)
  (match serving.defrag with
  | None -> ()
  | Some dcfg ->
    let idle_deployments () =
      let ids = Hashtbl.create 16 in
      List.iter
        (fun k ->
          List.iter
            (fun r ->
              if is_idle r then Hashtbl.replace ids r.r_depl.Runtime.id ())
            (Hashtbl.find groups k).g_replicas)
        !sorted_keys;
      ids
    in
    let quiet () =
      List.for_all
        (fun k -> Queue.is_empty (Hashtbl.find groups k).g_backlog)
        !sorted_keys
    in
    (* The tick must not keep the event queue alive once no progress
       is possible — when every arrival has fired, nothing is in
       flight and no batch is lingering, the remaining backlog is
       permanently starved (e.g. its replica was preempted and the
       fabric never frees up) and the run must drain so the leftovers
       can be rejected. *)
    let stalled () =
      !arrivals_in >= ntasks && !busy_count = 0
      && List.for_all
           (fun k -> Batcher.pending batcher ~key:k = 0)
           !sorted_keys
    in
    let rec dtick () =
      if !completed + !rejected + !shed + !preempted < ntasks && not (stalled ())
      then begin
        if quiet () && Defrag.should_run dcfg runtime then begin
          let ids = idle_deployments () in
          let pass =
            Defrag.run_pass
              ~eligible:(fun (d : Runtime.deployment) ->
                Hashtbl.mem ids d.Runtime.id)
              dcfg runtime
          in
          defrag_moves := !defrag_moves + pass.Defrag.moved
        end;
        Sim.schedule sim ~delay:dcfg.Defrag.interval_us dtick
      end
    in
    Sim.schedule sim ~delay:dcfg.Defrag.interval_us dtick);
  (* Session idle expiry rides its own tick at the configured timeout
     period.  The guard mirrors the autoscale / defrag ticks so a
     drained (or permanently starved) run terminates instead of the
     tick keeping the event queue alive. *)
  (match (sessions, fe.sessions) with
  | Some stbl, Some scfg ->
    let iv = scfg.Session.idle_timeout_us in
    let stalled () =
      !arrivals_in >= ntasks && !busy_count = 0
      && List.for_all
           (fun k -> Batcher.pending batcher ~key:k = 0)
           !sorted_keys
    in
    let rec etick () =
      if
        !completed + !rejected + !shed + !preempted < ntasks
        && not (stalled ())
      then begin
        ignore (Session.expire stbl ~now_us:(Sim.now sim));
        Sim.schedule sim ~delay:iv etick
      end
    in
    Sim.schedule sim ~delay:iv etick
  | _ -> ());
  List.iter
    (fun (task : Genset.task) ->
      Sim.schedule_at sim ~at:task.Genset.arrival_us (fun () ->
          incr arrivals_in;
          Obs.Counter.incr arrived_c;
          let tally = tally_of task.Genset.tenant in
          (match tally with
          | Some t -> t.tt_arrived <- t.tt_arrived + 1
          | None -> ());
          let accel = accel_of_point task.Genset.point in
          Obs.Trace.task Obs.Trace.Arrive task.Genset.task_id ~label:accel;
          let now = Sim.now sim in
          let cname = Sizes.name task.Genset.model_class in
          let verdict =
            if multi then
              Slo.admit ~tenant:task.Genset.tenant gate ~class_name:cname
                ~now_us:now
            else Slo.admit gate ~class_name:cname ~now_us:now
          in
          match verdict with
          | Slo.Shed_rate | Slo.Shed_priority | Slo.Shed_tenant ->
            incr shed;
            Obs.Counter.incr shed_c;
            (match tally with
            | Some t ->
              t.tt_shed <- t.tt_shed + 1;
              Obs.Counter.incr t.tt_shed_c
            | None -> ());
            Obs.Trace.task Obs.Trace.Shed task.Genset.task_id ~retries:0
              ~label:accel
          | Slo.Admitted -> (
            (match tally with
            | Some t -> t.tt_admitted <- t.tt_admitted + 1
            | None -> ());
            (* Front door: the request joins its client's session
               stream (one session per tenant) and probes the
               compiled-mapping cache — a miss pays [compile_us] of
               mapping work on top of service, a hit pays nothing. *)
            let sess =
              Option.map
                (fun stbl -> Session.touch stbl ~now_us:now task.Genset.tenant)
                sessions
            in
            let seq = match sess with Some s -> Session.submit s | None -> 0 in
            let compile_us =
              match mapcache with
              | None -> 0.0
              | Some (mc, cost) -> (
                match Mapcache.find mc (shape_sig_of accel) with
                | Some () -> 0.0
                | None ->
                  Mapcache.put mc (shape_sig_of accel) ();
                  cost)
            in
            let st =
              {
                s_task = task;
                s_deadline_us =
                  (match Slo.find gate cname with
                  | Some c -> c.Slo.deadline_us
                  | None -> 0.0);
                s_session = sess;
                s_seq = seq;
                s_compile_us = compile_us;
              }
            in
            incr queued;
            peak_queue := max !peak_queue !queued;
            Obs.Trace.task Obs.Trace.Queue task.Genset.task_id ~label:accel;
            let g = group_of accel in
            g.g_arrivals <- g.g_arrivals + 1;
            (let p = prio_of task.Genset.tenant in
             if p > g.g_priority then g.g_priority <- p);
            match Batcher.add batcher ~key:accel ~now_us:now st with
            | Batcher.Dispatch batch -> dispatch g batch
            | Batcher.Opened deadline ->
              Sim.schedule_at sim ~at:deadline (fun () ->
                  match
                    Batcher.flush_due batcher ~key:accel
                      ~now_us:(Sim.now sim)
                  with
                  | [] -> ()
                  | batch -> dispatch g batch)
            | Batcher.Joined -> ())))
    tasks;
  let loop_t0 = Obs.wall_us () in
  Sim.run sim;
  let loop_wall_s = (Obs.wall_us () -. loop_t0) /. 1e6 in
  (* Whatever never reached a replica is rejected, and the warm pool
     is torn down, so every task and every placement is accounted
     for. *)
  List.iter
    (fun k ->
      let g = Hashtbl.find groups k in
      List.iter (reject_stask ~accel:k) (Batcher.drain batcher ~key:k);
      reject_backlog g;
      List.iter
        (fun r ->
          Queue.iter
            (fun b -> List.iter (reject_stask ~accel:k) b)
            r.r_queue;
          Queue.clear r.r_queue;
          Runtime.undeploy runtime r.r_depl)
        g.g_replicas;
      g.g_replicas <- [])
    !sorted_keys;
  let lost = ntasks - !completed - !rejected - !shed - !preempted in
  if lost > 0 then Obs.Counter.add (Obs.Counter.get "sysim.tasks.lost") lost;
  let mean xs = Mlv_util.Stats.mean xs in
  let p50, p95, p99 = latency_percentiles !latencies in
  let throughput =
    if !makespan > 0.0 then float_of_int !completed /. (!makespan /. 1e6)
    else 0.0
  in
  {
    completed = !completed;
    retried = 0;
    rejected = !rejected;
    shed = !shed;
    lost;
    makespan_us = !makespan;
    throughput_per_s = throughput;
    goodput_per_s =
      (if !makespan > 0.0 then
         float_of_int (!completed - !slo_misses) /. (!makespan /. 1e6)
       else 0.0);
    fault_downtime_us = 0.0;
    fault_free_throughput_per_s = throughput;
    mean_latency_us = mean !latencies;
    mean_wait_us = mean !waits;
    wait_attempts = List.length !waits;
    mean_wait_per_attempt_us = mean !waits;
    mean_service_us = mean !services;
    p50_latency_us = p50;
    p95_latency_us = p95;
    p99_latency_us = p99;
    peak_queue = !peak_queue;
    latencies_us = List.rev !latencies;
    slo_misses = !slo_misses;
    batches = Batcher.batches batcher;
    scale_ups = !scale_ups;
    scale_downs = !scale_downs;
    preempted = !preempted;
    preemptions = !preemptions;
    defrag_moves = !defrag_moves;
    cache_hits = fst (cache_stats runtime);
    cache_misses = snd (cache_stats runtime);
    sessions_opened =
      (match sessions with Some s -> Session.opened s | None -> 0);
    sessions_expired =
      (match sessions with Some s -> Session.expired s | None -> 0);
    sticky_hits =
      (match sessions with Some s -> Session.sticky_hits s | None -> 0);
    sticky_misses =
      (match sessions with Some s -> Session.sticky_misses s | None -> 0);
    held_results = (match sessions with Some s -> Session.held s | None -> 0);
    mapcache_hits =
      (match mapcache with Some (mc, _) -> Mapcache.hits mc | None -> 0);
    mapcache_misses =
      (match mapcache with Some (mc, _) -> Mapcache.misses mc | None -> 0);
    mapcache_evictions =
      (match mapcache with Some (mc, _) -> Mapcache.evictions mc | None -> 0);
    per_tenant = tenant_stats_of ~makespan_us:!makespan tallies;
    scrapes = !scrapes;
    alert_transitions =
      (match alerts with Some e -> Alert.transitions e | None -> []);
    loop_wall_s;
  }
