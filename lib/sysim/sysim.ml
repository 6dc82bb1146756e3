open Mlv_workload
module Runtime = Mlv_core.Runtime
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
module Int_table = Mlv_util.Int_table
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
  defrag : Defrag.config option;
      (* background compaction of idle replicas during low load *)
}

let default_serving =
  {
    classes = [];
    batch = Batcher.config ();
    autoscale = Some Autoscaler.default;
    tenant_pool = None;
    defrag = None;
  }

type telemetry = {
  scrape_interval_us : float;
  rules : Alert.rule list;
}

let default_telemetry = { scrape_interval_us = 10_000.0; rules = [] }

(* Ring capacity of every published series. *)
let series_buckets = 512

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
  arrival : Genset.arrival;
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
    arrival = Genset.Exponential { mean_us = 200.0 };
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
        ~arrival:cfg.arrival
    | loads ->
      Genset.generate_tenants ~seed:cfg.seed ~composition:cfg.composition loads)

(* The exact task stream [run] will play for this config: a run
   generates from a fresh seed-derived stream before consuming any
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
   makespan is known.  Each admitted task carries its tenant's tally,
   resolved once at arrival. *)
type ttally = {
  tt_name : string;
  tt_priority : int;  (* the tenant's tl_priority: preemption rank *)
  mutable tt_arrived : int;
  mutable tt_admitted : int;
  mutable tt_shed : int;
  mutable tt_completed : int;
  mutable tt_rejected : int;
  mutable tt_preempted : int;
  mutable tt_slo_misses : int;
  mutable tt_latencies : float list;
}

(* Tallies in declaration order. *)
let make_tallies cfg =
  List.map
    (fun (l : Genset.tenant_load) ->
      {
        tt_name = l.Genset.tl_name;
        tt_priority = l.Genset.tl_priority;
        tt_arrived = 0;
        tt_admitted = 0;
        tt_shed = 0;
        tt_completed = 0;
        tt_rejected = 0;
        tt_preempted = 0;
        tt_slo_misses = 0;
        tt_latencies = [];
      })
    cfg.tenants

let tenant_stats_of ~makespan_us tallies =
  List.map
    (fun t ->
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

(* What the service model reads off a deployment.  [vbs] is 0 where the
   model ignores it (several nodes, or whole devices). *)
type shape = {
  tiles : int;
  nodes : int;
  kind : Device.kind;  (* the least, what sorting the kinds puts first *)
  partner_slowdown : float;  (* fastest clock / slowest *)
  added_latency_us : float;
  whole_device : bool;
  vbs : int;
}

(* A mapping database and the service model's memos: service times by
   point and shape (exactly the model's input), and reordered scale-out
   plans by point and part count, which is all a program depends on. *)
type registry = {
  db : Mapdb.t;
  service : (Deepbench.point * shape, float) Hashtbl.t;
  plans : (Deepbench.point * int, Scale_out.plan) Hashtbl.t;
}

let of_mapdb db = { db; service = Hashtbl.create 64; plans = Hashtbl.create 16 }

let build_registry () =
  of_mapdb (Framework.npu_registry ~iterations:2 ~tile_counts:instance_tile_counts ())

let mapdb r = r.db

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

(* [tbl]'s value for [key], made by [make key] on first sight.  The
   lookup allocates nothing on a hit. *)
let memo tbl key make =
  match Hashtbl.find tbl key with
  | v -> v
  | exception Not_found ->
    let v = make key in
    Hashtbl.replace tbl key v;
    v

(* One pass over a deployment's placements, once per batch start: its
   shape and its dims for labeled metrics and lifecycle events (the
   lowest node id and the first placement's device kind).  The scan
   captures nothing, so it allocates only what it returns. *)
let rec scan_placements whole_device added_latency_us tiles vbs nodes kind fastest slowest
    primary kind_name = function
  | [] ->
    let partner_slowdown = if slowest = infinity then 1.0 else fastest /. slowest in
    let vbs = if nodes >= 2 || whole_device then 0 else vbs in
    ( { tiles; nodes; kind; partner_slowdown; added_latency_us; whole_device; vbs },
      (if nodes = 0 then None else Some primary),
      kind_name )
  | (p : Runtime.placement) :: rest ->
    let rec node_later id = function
      | [] -> false
      | (q : Runtime.placement) :: rest -> q.Runtime.node_id = id || node_later id rest
    in
    let b = p.Runtime.bitstream in
    let k = b.Mlv_vital.Bitstream.device in
    let f = (Device.get k).Device.base_freq_mhz in
    scan_placements whole_device added_latency_us
      (tiles + b.Mlv_vital.Bitstream.tiles)
      (vbs + b.Mlv_vital.Bitstream.vbs)
      (if node_later p.Runtime.node_id rest then nodes else nodes + 1)
      (if compare kind k <= 0 then kind else k)
      (Float.max fastest f) (Float.min slowest f)
      (Int.min primary p.Runtime.node_id)
      kind_name rest

let deployment_shape ~policy ~added_latency_us (d : Runtime.deployment) =
  let whole = policy.Runtime.whole_device in
  match d.Runtime.placements with
  | [] -> scan_placements whole added_latency_us 0 0 0 Device.XCVU37P 1.0 infinity 0 "none" []
  | p :: _ as ps ->
    let k = p.Runtime.bitstream.Mlv_vital.Bitstream.device in
    scan_placements whole added_latency_us 0 0 0 k 1.0 infinity p.Runtime.node_id
      (Device.kind_name k) ps

(* One inference of [point] on a deployment of [shape]. *)
let service_us registry (point : Deepbench.point) shape =
  let key = (point, shape) in
  match Hashtbl.find registry.service key with
  | v -> v
  | exception Not_found ->
    let device = Device.get shape.kind in
    let mem_kind = if device.Device.has_uram then Config.Bram_uram else Config.Bram_only in
    let v =
      if shape.nodes >= 2 then begin
        (* Scale-out across the allocated nodes with the overlap
           optimization. *)
        let parts, per_part =
          scale_out_shape ~hidden:point.Deepbench.hidden ~nodes:shape.nodes ~tiles:shape.tiles
        in
        let plan =
          try Hashtbl.find registry.plans (point, parts)
          with Not_found ->
            let { Deepbench.kind; hidden; timesteps } = point in
            let plan =
              Scale_out.plan ~reordered:true kind ~hidden ~input:hidden ~timesteps ~parts
            in
            Hashtbl.replace registry.plans (point, parts) plan;
            plan
        in
        let cfg = Config.make ~tiles:per_part ~mem_kind () in
        Scale_out.plan_latency_us ~partner_slowdown:shape.partner_slowdown ~config:cfg
          ~device ~added_latency_us:shape.added_latency_us plan
      end
      else begin
        let cfg = Config.make ~tiles:shape.tiles ~mem_kind () in
        let program, _ = Deepbench.program point in
        let deploy =
          if shape.whole_device then Perf.bare
          else Perf.vital_deploy ~virtual_blocks:shape.vbs ~pattern_aware:true
        in
        (Perf.program_latency cfg device ~deploy program).Perf.total_us
      end
    in
    Hashtbl.replace registry.service key v;
    v

let service_latency_us registry ~policy ~added_latency_us point d =
  let shape, _, _ = deployment_shape ~policy ~added_latency_us d in
  service_us registry point shape

(* Put [xs] at the front of [q], in order: re-queued work is the
   oldest, and lane order must survive a crash retry or an eviction. *)
let push_front q xs =
  let tmp = Queue.create () in
  List.iter (fun x -> Queue.add x tmp) xs;
  Queue.transfer q tmp;
  Queue.transfer tmp q

(* Dispatch state.  Requests for the same accelerator instance form a
   group; a group owns replicas (live deployments, kept warm across
   batches when serving) and waits in a lane for a replica when none
   can take its batch. *)
type stask = {
  s_task : Genset.task;
  s_group : sgroup;  (* the group of the accelerator it asks for *)
  s_tally : ttally option;  (* its tenant's tally; None single-tenant *)
  s_deadline_us : float;  (* class SLO deadline; 0 = multiplier rule *)
  s_session : Session.session option;
      (* front-door session (sticky routing, in-order delivery);
         None when sessions are off *)
  s_seq : int;  (* in-session sequence number; 0 when sessions are off *)
  s_compile_us : float;
      (* mapping-compilation time this request pays (cache miss);
         0 on a hit or without a mapping cache *)
  mutable s_retries : int;  (* crash interruptions survived so far *)
  mutable s_ready_us : float;
      (* when this attempt entered its lane: arrival for the first
         attempt, re-queue time after a crash retry *)
  mutable s_service_us : float;
      (* this attempt's service time, its share of the batch's
         reconfiguration and compilation included; set at its start *)
}

and replica = {
  r_id : int;
  r_depl : Runtime.deployment;
  r_queue : stask list Queue.t;  (* batches assigned, not yet started *)
  mutable r_busy : bool;
  mutable r_fresh : bool;  (* reconfiguration not yet charged *)
  mutable r_idle_since : float;
  mutable r_epoch : int;
      (* bumped when a preemption or a crash voids the in-flight batch,
         so the already-scheduled completion event recognizes it is
         void *)
  mutable r_inflight : stask list;  (* the batch currently in service *)
}

and sgroup = {
  g_accel : string;
  g_tracker : Autoscaler.tracker;
  mutable g_replicas : replica list;  (* creation order *)
  g_by_id : replica Int_table.t;  (* g_replicas by id *)
  g_lane : lane;  (* where its batches wait for a replica *)
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

(* Batches that found no replica to run on, oldest first.  Serving
   gives every group a lane of its own; the open loop's FIFO policy
   shares one lane among all groups, so a refused head blocks every
   request behind it (Fig. 12's head-of-line rule). *)
and lane = {
  l_key : string;  (* lanes are pumped in key order *)
  l_batches : stask list Queue.t;
  mutable l_tasks : int;  (* Σ batch sizes across l_batches *)
}

(* The replica selection every eviction shares: over the [groups] not
   [skip]ped (in list order) and their [eligible] replicas (in creation
   order), the first one no later one beats, where [less g r bg br]
   says (g, r) beats the best so far (bg, br).  Closed over nothing,
   so a search allocates only its answer: the reclaim search runs on
   every refused deploy. *)
let rec least_in skip eligible less bg br gs g = function
  | r :: rs ->
    if eligible r && less g r bg br then least_in skip eligible less g r gs g rs
    else least_in skip eligible less bg br gs g rs
  | [] -> (
    match gs with
    | [] -> (bg, br)
    | g :: gs ->
      least_in skip eligible less bg br gs g (if skip g then [] else g.g_replicas))

let rec first_in skip eligible less gs g = function
  | r :: rs ->
    if eligible r then Some (least_in skip eligible less g r gs g rs)
    else first_in skip eligible less gs g rs
  | [] -> (
    match gs with
    | [] -> None
    | g :: gs -> first_in skip eligible less gs g (if skip g then [] else g.g_replicas))

let least_replica ~skip ~eligible ~less = function
  | [] -> None
  | g :: gs -> first_in skip eligible less gs g (if skip g then [] else g.g_replicas)

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)
(* ------------------------------------------------------------------ *)

(* Samples kept for an exact mean, unboxed in a growable array: one
   word per sample where a list spends five.  [mean] sums newest first,
   the order [Stats.mean] sums a list built by consing, so it is
   bit-identical to that list's mean. *)
module Samples = struct
  type t = { mutable a : Float.Array.t; mutable n : int }

  let create () = { a = Float.Array.create 256; n = 0 }

  let add t x =
    if t.n = Float.Array.length t.a then begin
      let b = Float.Array.create (2 * t.n) in
      Float.Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    Float.Array.set t.a t.n x;
    t.n <- t.n + 1

  let count t = t.n

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = t.n - 1 downto 0 do
        sum := !sum +. Float.Array.get t.a i
      done;
      !sum /. float_of_int t.n
    end
end

(* The state a run drives: the cluster, the task stream, the groups
   the dispatch loop serves, the metric handles the per-task paths
   emit through, and every tally a run counts — each kept once, here.
   The counters that mirror a tally are published from it as the run
   ends ([publish]); the dispatch loop keeps its lanes, replicas and
   policy state beside it. *)
type run = {
  cfg : config;
  registry : registry;
  cluster : Cluster.t;
  runtime : Runtime.t;
  sim : Sim.t;
  tasks : Genset.task list;
  ntasks : int;
  tallies : ttally list;
  accel_names : (int, string) Hashtbl.t;
      (* instance size -> accelerator name: a sprintf per arrival
         otherwise *)
  node_cs : (int, Obs.Counter.t) Hashtbl.t;  (* sysim.tasks.completed{node} *)
  kind_hs : (string, Obs.Histogram.t) Hashtbl.t;  (* sysim.task_sojourn_us{kind} *)
  wait_attempt_h : Obs.Histogram.t;
  service_h : Obs.Histogram.t;
  wait_h : Obs.Histogram.t;
  sojourn_h : Obs.Histogram.t;
  mutable groups : sgroup list;
      (* by name ascending, maintained on creation (groups are never
         destroyed): decisions iterate groups in this order, never in
         Hashtbl order, to stay deterministic *)
  mutable arrived : int;
  mutable completed : int;
  mutable rejected : int;
  mutable shed : int;  (* turned away at the gate *)
  mutable preempted : int;  (* in-flight work evicted *)
  mutable retried : int;  (* crash interruptions re-queued *)
  mutable slo_misses : int;
  mutable completed_in_outage : int;  (* completions while a node was down *)
  mutable queued : int;  (* admitted, not yet in service *)
  mutable peak_queue : int;
  mutable busy : int;  (* replicas serving a batch *)
  mutable scale_ups : int;  (* replicas made; the next one's id *)
  mutable scale_downs : int;
  mutable preemptions : int;  (* replicas evicted *)
  mutable defrag_moves : int;
  mutable latencies : float list;
  waits : Samples.t;  (* end to end, one per completion *)
  attempt_waits : Samples.t;  (* one per service start *)
  services : Samples.t;
  mutable makespan : float;
  mutable sojourn_s : Series.t option;  (* sysim.sojourn_us.p99, telemetry on *)
  mutable scrapes : int;
}

let setup ~registry cfg =
  let cluster = Cluster.create ~kinds:cfg.cluster_kinds () in
  let cache =
    Option.map (fun capacity -> Bitstream.Cache.create ~capacity ()) cfg.bitstream_cache
  in
  let runtime = Runtime.create ~policy:cfg.policy ?cache cluster registry.db in
  let rng = Rng.create cfg.seed in
  let tasks = generate_tasks ~rng cfg in
  {
    cfg;
    registry;
    cluster;
    runtime;
    sim = cluster.Cluster.sim;
    tasks;
    ntasks = task_count cfg;
    tallies = make_tallies cfg;
    accel_names = Hashtbl.create 16;
    node_cs = Hashtbl.create 32;
    kind_hs = Hashtbl.create 8;
    (* Interned once: the hot paths emit through direct handles. *)
    wait_attempt_h = Obs.Histogram.get "sysim.task_wait_attempt_us";
    service_h = Obs.Histogram.get "sysim.task_service_us";
    wait_h = Obs.Histogram.get "sysim.task_wait_us";
    sojourn_h = Obs.Histogram.get "sysim.task_sojourn_us";
    groups = [];
    arrived = 0;
    completed = 0;
    rejected = 0;
    shed = 0;
    preempted = 0;
    retried = 0;
    slo_misses = 0;
    completed_in_outage = 0;
    queued = 0;
    peak_queue = 0;
    busy = 0;
    scale_ups = 0;
    scale_downs = 0;
    preemptions = 0;
    defrag_moves = 0;
    latencies = [];
    waits = Samples.create ();
    attempt_waits = Samples.create ();
    services = Samples.create ();
    makespan = 0.0;
    sojourn_s = None;
    scrapes = 0;
  }

(* A task's preemption rank: its tenant's priority, 0 single-tenant. *)
let priority st = match st.s_tally with Some t -> t.tt_priority | None -> 0

(* Tasks that ended one way or another; the periodic ticks stop once
   every task has. *)
let unfinished run = run.completed + run.rejected + run.shed + run.preempted < run.ntasks

let accel_of_point run point =
  memo run.accel_names (instance_for ~policy:run.cfg.policy point) (fun tiles ->
      Framework.accel_name ~tiles)

(* Arrival prologue: count the task (and its tenant's arrival), trace
   it, and return the accelerator it asks for. *)
let arrive run (task : Genset.task) tally =
  run.arrived <- run.arrived + 1;
  (match tally with Some t -> t.tt_arrived <- t.tt_arrived + 1 | None -> ());
  let accel = accel_of_point run task.Genset.point in
  if Obs.Trace.enabled () then
    Obs.Trace.task Obs.Trace.Arrive task.Genset.task_id ~label:accel;
  accel

let reject run st =
  run.queued <- run.queued - 1;
  run.rejected <- run.rejected + 1;
  (match st.s_tally with Some t -> t.tt_rejected <- t.tt_rejected + 1 | None -> ());
  if Obs.Trace.enabled () then
    Obs.Trace.task Obs.Trace.Reject st.s_task.Genset.task_id ~retries:st.s_retries
      ~label:st.s_group.g_accel

(* Service start: trace the deploy, record the attempt's wait (from
   when this attempt entered its lane) and the task's service time,
   trace the service. *)
let start run st ~attempt_wait ~service ?node ~deployment () =
  let id = st.s_task.Genset.task_id and retries = st.s_retries in
  let label = st.s_group.g_accel in
  run.queued <- run.queued - 1;
  if Obs.Trace.enabled () then
    Obs.Trace.task Obs.Trace.Deploy id ?node ~deployment ~retries ~label;
  Samples.add run.attempt_waits attempt_wait;
  Obs.Histogram.observe run.wait_attempt_h attempt_wait;
  Samples.add run.services service;
  Obs.Histogram.observe run.service_h service;
  if Obs.Trace.enabled () then
    Obs.Trace.task Obs.Trace.Service id ?node ~deployment ~retries ~label

(* Labeled series are interned by (name, labels); caching the handles
   per dimension value keeps completions from building label lists. *)
let completed_on_node n =
  Obs.Counter.get_labeled "sysim.tasks.completed" [ ("node", string_of_int n) ]

let sojourn_of_kind kind =
  Obs.Histogram.get_labeled "sysim.task_sojourn_us" [ ("kind", kind) ]

(* Completion at [finished] of a service that started at [started], on
   a deployment whose dims are [node] and [kind]: count the task,
   record its end-to-end wait (from its original arrival, so every
   round of queueing of a retried task lands in one entry), record its
   sojourn in the latency list, the sojourn histograms and the p99
   series, trace it, check it against [deadline_us] and charge its
   tenant.  Returns the sojourn. *)
let complete run st ~started ~finished ~deadline_us ~node ~kind ~deployment =
  let task = st.s_task in
  let wait = started -. task.Genset.arrival_us in
  Samples.add run.waits wait;
  Obs.Histogram.observe run.wait_h wait;
  run.completed <- run.completed + 1;
  if Runtime.failed_count run.runtime > 0 then
    run.completed_in_outage <- run.completed_in_outage + 1;
  (match node with
  | Some n -> Obs.Counter.incr (memo run.node_cs n completed_on_node)
  | None -> ());
  let sojourn = finished -. task.Genset.arrival_us in
  run.latencies <- sojourn :: run.latencies;
  Obs.Histogram.observe run.sojourn_h sojourn;
  (match run.sojourn_s with
  | Some s -> Series.observe s ~now_us:finished sojourn
  | None -> ());
  Obs.Histogram.observe (memo run.kind_hs kind sojourn_of_kind) sojourn;
  if Obs.Trace.enabled () then
    Obs.Trace.task Obs.Trace.Complete task.Genset.task_id ?node ~deployment
      ~retries:st.s_retries ~label:st.s_group.g_accel;
  let missed = sojourn > deadline_us in
  if missed then run.slo_misses <- run.slo_misses + 1;
  (match st.s_tally with
  | Some t ->
    t.tt_completed <- t.tt_completed + 1;
    t.tt_latencies <- sojourn :: t.tt_latencies;
    if missed then t.tt_slo_misses <- t.tt_slo_misses + 1
  | None -> ());
  run.makespan <- Float.max run.makespan finished;
  sojourn

(* A telemetry series of this run.  Own the name: a previous run in
   this process may have registered it with a different interval or
   capacity. *)
let own_series tel kind name labels =
  Series.remove (Obs.Labels.key name labels);
  Series.create_labeled ~buckets:series_buckets ~kind
    ~interval_us:tel.scrape_interval_us name labels

(* Optional scrape loop: each interval, sample the run's tallies as
   per-scrape rates (completed, rejected, SLO-missed, shed, retried
   and the per-tenant ones) and its levels (queue depth, nodes down,
   replicas), then evaluate the alert rules; completions feed the
   sojourn p99 series directly.
   Ticks ride the event queue at absolute times k*interval so series
   bucket epochs align exactly with scrape boundaries.  A tick
   reschedules only while other work remains queued (at execution time
   the tick itself is already off the queue), so a drained run
   terminates instead of the loop keeping itself alive forever.
   Sampling only reads state, so results are identical with telemetry
   on or off; series are re-created at setup so back-to-back runs in
   one process stay independent.  Call it before the loop schedules
   anything: the first scrape is the first event at its time. *)
let start_telemetry run =
  Option.map
    (fun tel ->
      let engine = Alert.create tel.rules in
      let rate ?(labels = []) name read =
        let s = own_series tel Series.Rate name labels in
        let last = ref 0 in
        fun ~now_us ->
          let v = read () in
          Series.observe s ~now_us (float_of_int (v - !last));
          last := v
      in
      let level name read =
        let s = own_series tel Series.Gauge name [] in
        fun ~now_us -> Series.observe s ~now_us (float_of_int (read ()))
      in
      let replicas () =
        List.fold_left (fun acc g -> acc + List.length g.g_replicas) 0 run.groups
      in
      let samplers =
        [
          rate "sysim.completed.rate" (fun () -> run.completed);
          rate "sysim.rejected.rate" (fun () -> run.rejected);
          rate "sysim.slo_missed.rate" (fun () -> run.slo_misses);
          level "sysim.queue_depth" (fun () -> run.queued);
          rate "sysim.shed.rate" (fun () -> run.shed);
          rate "sysim.retried.rate" (fun () -> run.retried);
          level "sysim.nodes_down" (fun () -> Runtime.failed_count run.runtime);
          level "sysim.replicas" replicas;
        ]
        @ List.concat_map
            (fun t ->
              let labels = [ ("tenant", t.tt_name) ] in
              [
                rate ~labels "sysim.tenant.completed.rate" (fun () -> t.tt_completed);
                rate ~labels "sysim.tenant.slo_missed.rate" (fun () -> t.tt_slo_misses);
              ])
            run.tallies
      in
      run.sojourn_s <- Some (own_series tel (Series.Quantile 0.99) "sysim.sojourn_us.p99" []);
      let iv = tel.scrape_interval_us in
      let rec tick k () =
        let now_us = Sim.now run.sim in
        run.scrapes <- run.scrapes + 1;
        List.iter (fun sample -> sample ~now_us) samplers;
        Alert.eval engine ~now_us;
        if Sim.pending run.sim > 0 then
          Sim.schedule_at run.sim ~at:(float_of_int (k + 1) *. iv) (tick (k + 1))
      in
      Sim.schedule_at run.sim ~at:iv (tick 1);
      engine)
    run.cfg.telemetry

(* Publish the counters that mirror a tally of the finished run, one
   add each.  The always-present ones are registered even at zero; a
   preemption, scaling or loss counter only when the run counted one. *)
let publish run ~batches ~lost =
  let add ?(labels = []) name n =
    Obs.Counter.add (Obs.Counter.get_labeled name labels) n
  in
  let add_nonzero name n = if n > 0 then add name n in
  add "sysim.tasks.arrived" run.arrived;
  add "sysim.tasks.completed" run.completed;
  add "sysim.tasks.rejected" run.rejected;
  add "sysim.tasks.retried" run.retried;
  add "sysim.slo_misses" run.slo_misses;
  add "sysim.serving.batches" batches;
  add "sysim.serving.shed" run.shed;
  add_nonzero "sysim.tasks.lost" lost;
  add_nonzero "sysim.serving.scale_up" run.scale_ups;
  add_nonzero "sysim.serving.scale_down" run.scale_downs;
  add_nonzero "sysim.serving.preempted" run.preempted;
  add_nonzero "sysim.serving.preemptions" run.preemptions;
  List.iter
    (fun t ->
      let labels = [ ("tenant", t.tt_name) ] in
      add ~labels "sysim.tenant.completed" t.tt_completed;
      add ~labels "sysim.tenant.shed" t.tt_shed)
    run.tallies

(* Outage windows come from the fault plan; throughput outside them
   counts the completions that landed while every node was up, over
   the makespan minus the downtime overlapping it.  Windows are summed
   most recent first.  Returns the downtime and that throughput. *)
let fault_free run ~throughput =
  match run.cfg.faults with
  | None -> (0.0, throughput)
  | Some f ->
    let until = Sim.now run.sim in
    let windows = List.rev (Fault_plan.outages f.plan ~until) in
    let downtime = Fault_plan.downtime_us f.plan ~until in
    let in_makespan =
      List.fold_left
        (fun acc (t0, t1) -> acc +. Float.max 0.0 (Float.min t1 run.makespan -. t0))
        0.0 windows
    in
    let up_time = run.makespan -. in_makespan in
    ( downtime,
      if downtime = 0.0 then throughput
      else if up_time > 0.0 then
        float_of_int (run.completed - run.completed_in_outage) /. (up_time /. 1e6)
      else 0.0 )

(* A periodic serving tick: [f] every [interval_us] of sim time while
   [live ()] holds, checked before each firing, so a drained (or
   permanently starved) run terminates instead of the tick keeping the
   event queue alive. *)
let every sim ~interval_us ~live f =
  let rec tick () =
    if live () then begin
      f ();
      Sim.schedule sim ~delay:interval_us tick
    end
  in
  Sim.schedule sim ~delay:interval_us tick

(* The open loop's policy (Fig. 12) in serving terms: admit
   everything, serve each request as its own batch, never autoscale,
   pool tenants or defragment.  With it the dispatch loop runs FIFO:
   one lane with head-of-line blocking, a fresh deployment per batch
   and an undeploy on completion. *)
let fifo_policy =
  {
    classes = [];
    batch = Batcher.config ~max_batch:1 ();
    autoscale = None;
    tenant_pool = None;
    defrag = None;
  }

(* The dispatch loop: admission gate -> batcher -> lane -> replicas,
   with an optional autoscaler control loop on the sim clock and crash
   recovery under a fault plan.  [cfg.serving = None] runs it with
   [fifo_policy]; every task ends as completed, shed, rejected or
   preempted. *)
let dispatch_loop run =
  let cfg = run.cfg and sim = run.sim and runtime = run.runtime in
  let fifo = cfg.serving = None in
  let serving = Option.value cfg.serving ~default:fifo_policy in
  let multi = cfg.tenants <> [] in
  let gate = Slo.create serving.classes in
  (match serving.tenant_pool with
  | None -> ()
  | Some (rate_per_s, burst) ->
    if not multi then
      invalid_arg "Sysim.run: serving.tenant_pool requires config.tenants";
    Slo.set_tenant_pool gate ~rate_per_s ~burst
      (List.map
         (fun (l : Genset.tenant_load) ->
           Slo.tenant_spec ~weight:l.Genset.tl_weight l.Genset.tl_name)
         cfg.tenants));
  (* Tenant priorities drive the preemption policy; a run without
     positive priorities (every single-tenant run) never preempts. *)
  let rec batch_priority acc = function
    | [] -> acc
    | st :: batch -> batch_priority (max acc (priority st)) batch
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
  (* Shape signatures are a pure function of the registered plan.
     Each distinct signature (kilobytes long) is interned once to an
     int, and each accelerator's id memoized, so the admission path
     pays one lookup on the accelerator name and the cache hashes an
     int; equal ids are equal signatures, so hits, misses and
     evictions are those of a signature-keyed cache. *)
  let shape_ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let shape_id accel =
    let signature =
      match Mapdb.find run.registry.db accel with
      | Some p -> Mapdb.shape_signature p
      | None -> accel
    in
    memo shape_ids signature (fun _ -> Hashtbl.length shape_ids)
  in
  let accel_shape_ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let shape_id_of accel = memo accel_shape_ids accel shape_id in
  let batcher : stask Batcher.t = Batcher.create serving.batch in
  let router = Router.create () in
  let groups : (string, sgroup) Hashtbl.t = Hashtbl.create 8 in
  let insert_group g =
    let rec ins = function
      | [] -> [ g ]
      | x :: rest as l -> if g.g_accel < x.g_accel then g :: l else x :: ins rest
    in
    run.groups <- ins run.groups
  in
  let new_lane key = { l_key = key; l_batches = Queue.create (); l_tasks = 0 } in
  let fifo_lane = new_lane "" in
  (* Lanes whose backlog is non-empty, by key: the per-completion pump
     only looks at these instead of sweeping every group. *)
  let starved : (string, lane) Hashtbl.t = Hashtbl.create 8 in
  let group_of accel =
    match Hashtbl.find_opt groups accel with
    | Some g -> g
    | None ->
      let g =
        {
          g_accel = accel;
          g_tracker = Autoscaler.tracker ~name:("sojourn." ^ accel);
          g_replicas = [];
          g_by_id = Int_table.create 8;
          g_lane = (if fifo then fifo_lane else new_lane accel);
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
                (Series.create_labeled ~buckets:series_buckets ~kind:Series.Gauge
                   ~interval_us:acfg.interval_us "serve.arrivals.rate" lbl)
            | _ -> None);
        }
      in
      Hashtbl.replace groups accel g;
      insert_group g;
      g
  in
  let alerts = start_telemetry run in
  (* The autoscaler tick samples its observed backlog here. *)
  let autoscale_backlog_s =
    Option.map
      (fun tel -> own_series tel Series.Gauge "sysim.autoscale.backlog" [])
      cfg.telemetry
  in
  let backlog_push g batch =
    let l = g.g_lane in
    Queue.add batch l.l_batches;
    l.l_tasks <- l.l_tasks + List.length batch;
    Hashtbl.replace starved l.l_key l
  in
  let backlog_pop l =
    let b = Queue.pop l.l_batches in
    l.l_tasks <- l.l_tasks - List.length b;
    if Queue.is_empty l.l_batches then Hashtbl.remove starved l.l_key;
    b
  in
  (* Re-queued work is the oldest: [items] (oldest first) go to the
     front of their lanes, in order. *)
  let requeue_front items =
    let rec by_lane = function
      | [] -> ()
      | (g, _) :: _ as items ->
        let l = g.g_lane in
        let mine, rest = List.partition (fun (g', _) -> g'.g_lane == l) items in
        List.iter (fun (_, b) -> l.l_tasks <- l.l_tasks + List.length b) mine;
        push_front l.l_batches (List.map snd mine);
        Hashtbl.replace starved l.l_key l;
        by_lane rest
    in
    by_lane items
  in
  let reject_stask st =
    (* A rejected seq must not block its session's in-order stream. *)
    (match (sessions, st.s_session) with
    | Some stbl, Some sess ->
      Session.skip stbl sess ~seq:st.s_seq ~now_us:(Sim.now sim)
    | _ -> ());
    reject run st
  in
  let is_idle r = (not r.r_busy) && Queue.is_empty r.r_queue in
  let longer_idle _ r _ br = r.r_idle_since < br.r_idle_since in
  (* Longest-idle idle replica in any other group (tie: lowest replica
     id via the sorted iteration order) — the reclaim candidate when a
     starved group cannot deploy. *)
  let reclaim_candidate ~excluding =
    least_replica
      ~skip:(fun g -> g.g_accel = excluding)
      ~eligible:is_idle ~less:longer_idle run.groups
  in
  let remove_replica g r =
    Router.remove_replica router ~key:g.g_accel ~replica_id:r.r_id;
    g.g_replicas <- List.filter (fun x -> x != r) g.g_replicas;
    Int_table.remove g.g_by_id r.r_id;
    Runtime.undeploy runtime r.r_depl
  in
  let make_replica g d =
    let id = run.scale_ups in
    run.scale_ups <- id + 1;
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
      }
    in
    Router.add_replica router ~key:g.g_accel ~replica_id:id ~weight:1.0;
    g.g_replicas <- g.g_replicas @ [ r ];
    Int_table.replace g.g_by_id id r;
    Autoscaler.mark_scaled g.g_tracker ~now_us:(Sim.now sim);
    r
  in
  (* Take [r] out of service: void its in-flight batch (the epoch bump
     orphans the scheduled completion) and return it, put the batches
     assigned to it but not started back at the front of the lane,
     uncharged, and undeploy it. *)
  let retire g r =
    let inflight = r.r_inflight in
    if r.r_busy then begin
      r.r_epoch <- r.r_epoch + 1;
      r.r_busy <- false;
      run.busy <- run.busy - 1;
      r.r_inflight <- []
    end;
    let qbatches = List.rev (Queue.fold (fun acc b -> b :: acc) [] r.r_queue) in
    Queue.clear r.r_queue;
    List.iter (fun b -> g.g_assigned_tasks <- g.g_assigned_tasks - List.length b) qbatches;
    requeue_front (List.map (fun b -> (g, b)) qbatches);
    remove_replica g r;
    inflight
  in
  (* Victim for a priority preemption: any replica of a group whose
     work priority is below the demanding batch's — lowest priority
     first, idle before queued before busy, then lowest replica id
     (the deterministic tie-break). *)
  let preempt_candidate ~excluding ~prio =
    let rank r = if is_idle r then 0 else if not r.r_busy then 1 else 2 in
    least_replica
      ~skip:(fun g -> g.g_accel = excluding || g.g_priority >= prio)
      ~eligible:(fun _ -> true)
      ~less:(fun g r bg br ->
        g.g_priority < bg.g_priority
        || g.g_priority = bg.g_priority
           && (rank r < rank br || (rank r = rank br && r.r_id < br.r_id)))
      run.groups
  in
  (* Evict a victim replica: its in-flight tasks are preempted losses,
     closing the per-tenant identity
     arrived = completed + shed + rejected + preempted. *)
  let preempt_replica g' r ~now =
    List.iter
      (fun st ->
        run.preempted <- run.preempted + 1;
        (match (sessions, st.s_session) with
        | Some stbl, Some sess -> Session.skip stbl sess ~seq:st.s_seq ~now_us:now
        | _ -> ());
        match st.s_tally with
        | Some t -> t.tt_preempted <- t.tt_preempted + 1
        | None -> ())
      (retire g' r);
    run.preemptions <- run.preemptions + 1;
    Autoscaler.mark_scaled g'.g_tracker ~now_us:now
  in
  (* Add a replica to [g].  A refused deploy of an accelerator that
     can never deploy on this cluster ({!Runtime.feasible}) is [`Dead]
     at once — nothing is reclaimed or evicted for it, and the caller
     rejects rather than waits forever.
     Otherwise, in order: with [allow_reclaim], reclaim another group's
     longest-idle replica and retry; for a batch of priority [prio] >
     0, move the lowest-priority victim out of the way and retry — an
     idle victim not yet in [tried] is first relocated (force-migrate;
     the rollback guarantee keeps it live on failure) in case a denser
     packing alone frees the needed device, a victim that stays in the
     way is evicted; and [`Full] once nothing is left to try.  Every
     retry removes a replica or grows [tried] (bounded by the replica
     count), so the recursion terminates. *)
  let grow g ~allow_reclaim ~prio =
    let rec attempt tried =
      match Runtime.deploy runtime ~accel:g.g_accel with
      | Ok d -> `Ok (make_replica g d)
      | Error _ when not (Runtime.feasible runtime ~accel:g.g_accel) -> `Dead
      | Error _ -> (
        match
          if allow_reclaim then reclaim_candidate ~excluding:g.g_accel else None
        with
        | Some (g', r) ->
          Obs.Counter.incr (Obs.Counter.get "sysim.serving.reclaimed");
          remove_replica g' r;
          attempt tried
        | None -> (
          match
            if prio > 0 then preempt_candidate ~excluding:g.g_accel ~prio else None
          with
          | None -> `Full
          | Some (g', r) ->
            if
              (not (List.mem r.r_id tried))
              && is_idle r
              &&
              match Runtime.migrate ~force:true runtime r.r_depl with
              | Ok m -> m > 0
              | Error _ -> false
            then attempt (r.r_id :: tried)
            else begin
              preempt_replica g' r ~now:(Sim.now sim);
              attempt tried
            end))
    in
    attempt []
  in
  (* Route a batch onto a replica: router bookkeeping and the queue
     append, with the group's assigned-task counter kept in step. *)
  let assign g r batch =
    let n = List.length batch in
    Router.begin_work router ~key:g.g_accel ~replica_id:r.r_id n;
    g.g_assigned_tasks <- g.g_assigned_tasks + n;
    Queue.add batch r.r_queue
  in
  (* One task's result delivery, for a batch of [g] started at
     [started] on the deployment [deployment] whose dims are [node]
     and [kind].  Without sessions it runs inline at [finished]; with
     sessions it routes through the in-order stream, so a held result
     is delivered (and timed) at the releasing event's clock. *)
  let record g ~node ~kind ~deployment ~started st ~finished =
    let deadline_us =
      if st.s_deadline_us > 0.0 then st.s_deadline_us
      else cfg.slo_multiplier *. st.s_service_us
    in
    Autoscaler.observe_sojourn g.g_tracker
      (complete run st ~started ~finished ~deadline_us ~node ~kind ~deployment)
  in
  let rec deliver g ~node ~kind ~deployment ~started ~finished = function
    | [] -> ()
    | st :: batch ->
      (match (sessions, st.s_session) with
      | Some stbl, Some sess ->
        Session.complete stbl sess ~seq:st.s_seq ~now_us:finished (fun ~now_us ->
            record g ~node ~kind ~deployment ~started st ~finished:now_us)
      | _ -> record g ~node ~kind ~deployment ~started st ~finished);
      deliver g ~node ~kind ~deployment ~started ~finished batch
  in
  (* Each task's modeled service time, stored on the task, and the
     batch's sums of those and of the compilation times, added in
     batch order from [service] and [compile]. *)
  let rec batch_service shape service compile = function
    | [] -> (service, compile)
    | st :: batch ->
      let svc =
        float_of_int cfg.repeats_per_task
        *. service_us run.registry st.s_task.Genset.point shape
      in
      st.s_service_us <- svc;
      batch_service shape (service +. svc) (compile +. st.s_compile_us) batch
  in
  let rec start_replica g r =
    if (not r.r_busy) && not (Queue.is_empty r.r_queue) then begin
      let batch = Queue.pop r.r_queue in
      g.g_assigned_tasks <- g.g_assigned_tasks - List.length batch;
      r.r_busy <- true;
      run.busy <- run.busy + 1;
      r.r_inflight <- batch;
      let now = Sim.now sim in
      let d = r.r_depl in
      let shape, node, kind =
        deployment_shape ~policy:cfg.policy
          ~added_latency_us:(Network.added_latency_us run.cluster.Cluster.network)
          d
      in
      let reconfig = if r.r_fresh then d.Runtime.reconfig_us else 0.0 in
      r.r_fresh <- false;
      let n = List.length batch in
      (* Mapping-cache misses pay their compilation on the batch, like
         reconfiguration does; all-hit (or cacheless) batches add an
         exact 0.0, keeping service times bit-identical. *)
      let tasks_service, compile = batch_service shape 0.0 0.0 batch in
      let service = reconfig +. compile +. tasks_service in
      (* Reconfiguration (and compilation) amortizes across the batch. *)
      let overhead = (reconfig +. compile) /. float_of_int n in
      List.iter
        (fun st ->
          let task_service = st.s_service_us +. overhead in
          st.s_service_us <- task_service;
          (match g.g_pt with
          | Some pt -> Autoscaler.observe_service pt task_service
          | None -> ());
          start run st ~attempt_wait:(now -. st.s_ready_us) ~service:task_service
            ?node ~deployment:d.Runtime.id ())
        batch;
      let epoch = r.r_epoch in
      Sim.schedule sim ~delay:service (fun () -> complete_batch g r epoch now node kind)
    end
  (* The completion of the batch [r] started at [started] in [epoch],
     on a deployment whose dims were [node] and [kind] at its start.
     A preemption or a crash during service bumped the epoch: the
     replica is gone and its batch already accounted for — this
     completion is void. *)
  and complete_batch g r epoch started node kind =
    if r.r_epoch = epoch then begin
      let finished = Sim.now sim in
      let batch = r.r_inflight in
      r.r_busy <- false;
      run.busy <- run.busy - 1;
      r.r_inflight <- [];
      r.r_idle_since <- finished;
      Router.end_work router ~key:g.g_accel ~replica_id:r.r_id (List.length batch);
      deliver g ~node ~kind ~deployment:r.r_depl.Runtime.id ~started ~finished batch;
      run.makespan <- Float.max run.makespan finished;
      (* FIFO undeploys on completion; serving keeps the replica warm
         and feeds it its group's oldest waiting batch. *)
      if fifo then remove_replica g r
      else begin
        let l = g.g_lane in
        if Queue.is_empty r.r_queue && not (Queue.is_empty l.l_batches) then
          assign g r (backlog_pop l);
        start_replica g r
      end;
      pump_all ()
    end
  (* A capacity change anywhere may unblock a starved lane: pump the
     lanes with a backlog, in key order.  The maintained starved set
     makes this O(1) when nothing is starved, O(starved log starved)
     otherwise, instead of sweeping every group per completion. *)
  and pump_all () =
    if Hashtbl.length starved > 0 then
      Hashtbl.fold (fun k l acc -> (k, l) :: acc) starved []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (_, l) -> pump_lane l)
  (* Start the lane's head on an idle replica of its group (serving
     only: FIFO never reuses one) or a fresh one.  A head that could
     still deploy ([`Full]) blocks the lane; one that never can
     ([`Dead]) is rejected and the pump goes on. *)
  and pump_lane l =
    match Queue.peek_opt l.l_batches with
    | None | Some [] -> ()
    | Some ({ s_group = g; _ } :: _) -> (
      match if fifo then None else Router.pick router ~key:g.g_accel with
      | Some rid ->
        let r = Int_table.find g.g_by_id rid in
        if is_idle r then begin
          assign g r (backlog_pop l);
          start_replica g r;
          pump_lane l
        end
      | None -> (
        match grow g ~allow_reclaim:false ~prio:0 with
        | `Ok r ->
          assign g r (backlog_pop l);
          start_replica g r;
          pump_lane l
        | `Dead ->
          List.iter reject_stask (backlog_pop l);
          pump_lane l
        | `Full -> ()))
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
        | Some rid when Int_table.mem g.g_by_id rid ->
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
  (* FIFO appends to the one lane and tries only a head: a batch behind
     a waiting one makes no deploy attempt, since every capacity change
     pumps.  Serving routes onto a replica, growing the group when it
     has none. *)
  let rec dispatch g batch =
    if fifo then begin
      let was_empty = Queue.is_empty g.g_lane.l_batches in
      backlog_push g batch;
      if was_empty then pump_lane g.g_lane
    end
    else
      match sticky_pick g batch with
      | Some rid ->
        let r = Int_table.find g.g_by_id rid in
        assign g r batch;
        start_replica g r
      | None -> (
        match
          grow g ~allow_reclaim:(serving.autoscale <> None)
            ~prio:(batch_priority 0 batch)
        with
        | `Ok _ -> dispatch g batch
        | `Full -> backlog_push g batch
        | `Dead -> List.iter reject_stask batch)
  in
  (* Scale-down takes the group's longest-idle idle replica, then
     tries to consolidate a surviving idle multi-piece replica into a
     denser packing (the mapping search sees the freed space). *)
  let scale_down g ~now =
    match
      least_replica ~skip:(fun _ -> false) ~eligible:is_idle ~less:longer_idle [ g ]
    with
    | None -> ()
    | Some (_, r) ->
      remove_replica g r;
      run.scale_downs <- run.scale_downs + 1;
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
  (* The defrag and session-expiry ticks must not keep the event queue
     alive once no progress is possible — when every arrival has fired,
     nothing is in flight and no batch is lingering, the remaining
     backlog is permanently starved (e.g. its replica was preempted and
     the fabric never frees up) and the run must drain so the leftovers
     can be rejected. *)
  let stalled () =
    run.arrived >= run.ntasks && run.busy = 0
    && List.for_all (fun g -> Batcher.pending batcher ~key:g.g_accel = 0) run.groups
  in
  let progressing () = unfinished run && not (stalled ()) in
  (* Restores the fault plan has yet to fire. *)
  let restores_left =
    ref
      (match cfg.faults with
      | None -> 0
      | Some f ->
        List.length
          (List.filter
             (fun (e : Fault_plan.event) ->
               match e.Fault_plan.action with Fault_plan.Restore _ -> true | _ -> false)
             (Fault_plan.events f.plan)))
  in
  (* A stalled run moves again only when the autoscaler reclaims a
     replica for a starved lane or a crashed node comes back.  With no
     replica and no restore left, capacity lost to a crash is gone for
     good: the autoscaler stops so the run drains and the leftovers are
     rejected.  Without faults a stalled run always holds a replica. *)
  let revivable () =
    (not (stalled ()))
    || List.exists (fun g -> g.g_replicas <> []) run.groups
    || !restores_left > 0
  in
  (match serving.autoscale with
  | None -> ()
  | Some acfg ->
    (* The gate's classes are fixed for the run: its minimum deadline
       and the threshold that sheds its lowest-priority class are read
       once (min_int, shedding nothing, when it has no class). *)
    let deadline_us = Slo.min_deadline_us gate in
    let shed_threshold =
      match Slo.classes gate with
      | [] -> min_int
      | classes ->
        List.fold_left
          (fun acc (c : Slo.class_spec) -> min acc c.priority)
          max_int classes
        + 1
    in
    (* Grow [g] by up to [k] replicas, pumping its lane after each.
       True when a deploy found the cluster full while work was in
       flight — load turned away for lack of capacity.  With nothing
       busy the group already holds every live deployment, so nothing
       is shed.  A [`Dead] accelerator had its batches rejected at
       dispatch and has nothing in its lane. *)
    let rec grow_n g k =
      k > 0
      &&
      match grow g ~allow_reclaim:true ~prio:0 with
      | `Ok _ ->
        pump_lane g.g_lane;
        grow_n g (k - 1)
      | `Full -> run.busy > 0
      | `Dead -> false
    in
    let act g decision ~now ~target ~replicas =
      match decision with
      | Autoscaler.Scale_up -> grow_n g (max 1 (target - replicas))
      | Autoscaler.Scale_down ->
        scale_down g ~now;
        false
      | Autoscaler.Hold -> false
    in
    (* Predictive mode feeds the tick's admitted-arrival rate to the
       forecaster and grows toward its target in one tick; reactive
       mode keeps the one-step watermark rules (its target is the
       current size, so [grow_n] makes one attempt — the pre-front-door
       shape). *)
    let control g ~now ~backlog ~replicas ~idle =
      match (g.g_pt, fe.predict) with
      | Some pt, Some p ->
        let delta = g.g_arrivals - g.g_last_arrivals in
        g.g_last_arrivals <- g.g_arrivals;
        let rate = float_of_int delta /. (acfg.interval_us /. 1e6) in
        (match g.g_rate_s with
        | Some s -> Series.observe s ~now_us:now rate
        | None -> ());
        Autoscaler.observe_rate pt rate;
        let decision, target =
          Autoscaler.decide_predictive acfg p g.g_tracker pt ~now_us:now ~backlog
            ~replicas ~idle ~deadline_us
        in
        act g decision ~now ~target ~replicas
      | _ ->
        act g
          (Autoscaler.decide acfg g.g_tracker ~now_us:now ~backlog ~replicas ~idle
             ~deadline_us)
          ~now ~target:replicas ~replicas
    in
    (* One tick over the groups in order.  [count] walks a group's
       replicas once, counting them and the idle ones past the
       timeout, then runs the group's control step; the tick carries
       whether any step was capacity-bound and the total backlog. *)
    let rec tick_groups now capacity_bound total_backlog = function
      | [] -> (
        (* Capacity-bound: shed the lowest-priority class at the gate
           until a tick passes without an unsatisfied scale-up. *)
        Slo.set_shed_below gate (if capacity_bound then shed_threshold else min_int);
        match autoscale_backlog_s with
        | Some s -> Series.observe s ~now_us:now (float_of_int total_backlog)
        | None -> ())
      | g :: gs -> count now capacity_bound total_backlog g gs 0 0 g.g_replicas
    and count now capacity_bound total_backlog g gs replicas idle = function
      | r :: rs ->
        let idle =
          if is_idle r && now -. r.r_idle_since >= acfg.idle_timeout_us then idle + 1
          else idle
        in
        count now capacity_bound total_backlog g gs (replicas + 1) idle rs
      | [] ->
        let backlog =
          Batcher.pending batcher ~key:g.g_accel + g.g_lane.l_tasks + g.g_assigned_tasks
        in
        let bound = control g ~now ~backlog ~replicas ~idle in
        tick_groups now (capacity_bound || bound) (total_backlog + backlog) gs
    in
    every sim ~interval_us:acfg.interval_us ~live:(fun () -> unfinished run && revivable ())
      (fun () -> tick_groups (Sim.now sim) false 0 run.groups));
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
        (fun g ->
          List.iter
            (fun r ->
              if is_idle r then Hashtbl.replace ids r.r_depl.Runtime.id ())
            g.g_replicas)
        run.groups;
      ids
    in
    let quiet () = Hashtbl.length starved = 0 in
    every sim ~interval_us:dcfg.Defrag.interval_us ~live:progressing (fun () ->
        if quiet () && Defrag.should_run dcfg runtime then begin
          let ids = idle_deployments () in
          let pass =
            Defrag.run_pass
              ~eligible:(fun (d : Runtime.deployment) ->
                Hashtbl.mem ids d.Runtime.id)
              dcfg runtime
          in
          run.defrag_moves <- run.defrag_moves + pass.Defrag.moved
        end));
  (* Session idle expiry rides its own tick at the configured timeout
     period, under the defrag tick's guard. *)
  (match (sessions, fe.sessions) with
  | Some stbl, Some scfg ->
    every sim ~interval_us:scfg.Session.idle_timeout_us ~live:progressing (fun () ->
        ignore (Session.expire stbl ~now_us:(Sim.now sim)))
  | _ -> ());
  (* Resolved once per run rather than per arrival: a tenant's tally
     (the first of that name; None when no tally has it) and a model
     class's SLO deadline (0 = the multiplier rule). *)
  let tally_of =
    let by_name = Hashtbl.create 8 in
    List.iter
      (fun t -> Hashtbl.replace by_name t.tt_name (Some t))
      (List.rev run.tallies);
    fun name ->
      match Hashtbl.find by_name name with t -> t | exception Not_found -> None
  in
  let class_deadline c =
    match Slo.find gate (Sizes.name c) with Some c -> c.Slo.deadline_us | None -> 0.0
  in
  let deadline_s = class_deadline Sizes.S
  and deadline_m = class_deadline Sizes.M
  and deadline_l = class_deadline Sizes.L in
  let deadline_of = function
    | Sizes.S -> deadline_s
    | Sizes.M -> deadline_m
    | Sizes.L -> deadline_l
  in
  (* A batch's linger timer: release it if its deadline has come. *)
  let on_linger g =
    match Batcher.flush_due batcher ~key:g.g_accel ~now_us:(Sim.now sim) with
    | [] -> ()
    | batch -> dispatch g batch
  in
  let on_arrival (task : Genset.task) =
    let tally = match run.tallies with [] -> None | _ -> tally_of task.Genset.tenant in
    let accel = arrive run task tally in
    let now = Sim.now sim in
    let cname = Sizes.name task.Genset.model_class in
    let verdict =
      if multi then
        Slo.admit ~tenant:task.Genset.tenant gate ~class_name:cname ~now_us:now
      else Slo.admit gate ~class_name:cname ~now_us:now
    in
    match verdict with
    | Slo.Shed_rate | Slo.Shed_priority | Slo.Shed_tenant ->
      run.shed <- run.shed + 1;
      (match tally with Some t -> t.tt_shed <- t.tt_shed + 1 | None -> ());
      if Obs.Trace.enabled () then
        Obs.Trace.task Obs.Trace.Shed task.Genset.task_id ~retries:0 ~label:accel
    | Slo.Admitted -> (
      (match tally with Some t -> t.tt_admitted <- t.tt_admitted + 1 | None -> ());
      (* Front door: the request joins its client's session stream
         (one session per tenant) and probes the compiled-mapping
         cache — a miss pays [compile_us] of mapping work on top of
         service, a hit pays nothing. *)
      let sess =
        match sessions with
        | Some stbl -> Some (Session.touch stbl ~now_us:now task.Genset.tenant)
        | None -> None
      in
      let seq = match sess with Some s -> Session.submit s | None -> 0 in
      let compile_us =
        match mapcache with
        | None -> 0.0
        | Some (mc, cost) -> (
          let key = shape_id_of accel in
          match Mapcache.find mc key with
          | Some () -> 0.0
          | None ->
            Mapcache.put mc key ();
            cost)
      in
      let g = group_of accel in
      let st =
        {
          s_task = task;
          s_group = g;
          s_tally = tally;
          s_deadline_us = deadline_of task.Genset.model_class;
          s_session = sess;
          s_seq = seq;
          s_compile_us = compile_us;
          s_retries = 0;
          s_ready_us = task.Genset.arrival_us;
          s_service_us = 0.0;
        }
      in
      run.queued <- run.queued + 1;
      run.peak_queue <- max run.peak_queue run.queued;
      if Obs.Trace.enabled () then
        Obs.Trace.task Obs.Trace.Queue task.Genset.task_id ~label:accel;
      g.g_arrivals <- g.g_arrivals + 1;
      g.g_priority <- max g.g_priority (priority st);
      match Batcher.add batcher ~key:accel ~now_us:now st with
      | Batcher.Dispatch batch -> dispatch g batch
      | Batcher.Opened deadline ->
        Sim.schedule_at sim ~at:deadline (fun () -> on_linger g)
      | Batcher.Joined -> ())
  in
  (* Every arrival is scheduled now and its thunk stays live until it
     fires, so it captures the shared handler and its task alone: each
     word more would be a word per task of promoted heap. *)
  List.iter
    (fun (task : Genset.task) ->
      Sim.schedule_at sim ~at:task.Genset.arrival_us (fun () -> on_arrival task))
    run.tasks;
  (* A crash kills every replica with a piece on the dead node: its
     in-flight batch is void, and each interrupted task goes back to the
     front of its lane in task-id order as a retry — unless it already
     spent its retry budget, in which case it is rejected.  The batches
     assigned to the replica but not started go back too, uncharged,
     behind them.  Sticky routes to the dead replicas fall back to the
     router, and the autoscaler sees the lost capacity. *)
  let max_retries = match cfg.faults with Some f -> f.max_retries | None -> 0 in
  let on_crash node =
    Runtime.mark_node_failed runtime node;
    let now = Sim.now sim in
    let interrupted =
      List.concat_map
        (fun g ->
          List.concat_map
            (fun r ->
              if
                List.exists
                  (fun (p : Runtime.placement) -> p.Runtime.node_id = node)
                  r.r_depl.Runtime.placements
              then List.map (fun st -> (r.r_depl.Runtime.id, st)) (retire g r)
              else [])
            g.g_replicas)
        run.groups
      |> List.sort (fun (_, a) (_, b) ->
             compare a.s_task.Genset.task_id b.s_task.Genset.task_id)
    in
    List.iter
      (fun (deployment, st) ->
        run.queued <- run.queued + 1;
        if Obs.Trace.enabled () then
          Obs.Trace.task Obs.Trace.Crash_interrupt st.s_task.Genset.task_id ~node
            ~deployment ~retries:st.s_retries ~label:st.s_group.g_accel)
      interrupted;
    let again, exhausted =
      List.partition (fun (_, st) -> st.s_retries < max_retries) interrupted
    in
    List.iter
      (fun (_, st) ->
        st.s_retries <- st.s_retries + 1;
        st.s_ready_us <- now;
        run.retried <- run.retried + 1;
        if Obs.Trace.enabled () then
          Obs.Trace.task Obs.Trace.Retry st.s_task.Genset.task_id ~node
            ~retries:st.s_retries ~label:st.s_group.g_accel)
      again;
    requeue_front (List.map (fun (_, st) -> (st.s_group, [ st ])) again);
    List.iter (fun (_, st) -> reject_stask st) exhausted;
    pump_all ()
  in
  let on_restore node =
    decr restores_left;
    Runtime.restore_node runtime node;
    pump_all ()
  in
  let on_degrade us = Network.set_added_latency_us run.cluster.Cluster.network us in
  (match cfg.faults with
  | None -> ()
  | Some f ->
    (match Fault_plan.validate f.plan ~nodes:(Cluster.node_count run.cluster) with
    | Ok () -> ()
    | Error e -> invalid_arg ("Sysim.run: " ^ e));
    Fault_plan.schedule f.plan sim ~on_crash ~on_restore ~on_degrade);
  (* Drain the event queue, timed: [loop_wall_s] is the loop alone. *)
  let loop_t0 = Obs.wall_us () in
  Sim.run sim;
  let loop_wall_s = (Obs.wall_us () -. loop_t0) /. 1e6 in
  (* Whatever never reached a replica is rejected (e.g. behind a crash
     that was never restored), and the warm pool is torn down, so every
     task and every placement is accounted for. *)
  List.iter
    (fun g ->
      List.iter reject_stask (Batcher.drain batcher ~key:g.g_accel);
      Queue.iter (List.iter reject_stask) g.g_lane.l_batches;
      Queue.clear g.g_lane.l_batches;
      List.iter
        (fun r ->
          Queue.iter (List.iter reject_stask) r.r_queue;
          Runtime.undeploy runtime r.r_depl)
        g.g_replicas;
      g.g_replicas <- [])
    run.groups;
  (* What no tally claims is lost. *)
  let lost = run.ntasks - run.completed - run.rejected - run.shed - run.preempted in
  let batches = Batcher.batches batcher in
  publish run ~batches ~lost;
  let p50, p95, p99 = latency_percentiles run.latencies in
  let per_s n =
    if run.makespan > 0.0 then float_of_int n /. (run.makespan /. 1e6) else 0.0
  in
  let throughput = per_s run.completed in
  let fault_downtime_us, fault_free_throughput_per_s = fault_free run ~throughput in
  let cache_stat f =
    match Runtime.bitstream_cache runtime with Some c -> f c | None -> 0
  in
  let session_stat f = match sessions with Some s -> f s | None -> 0 in
  let mapcache_stat f = match mapcache with Some (mc, _) -> f mc | None -> 0 in
  {
    completed = run.completed;
    retried = run.retried;
    rejected = run.rejected;
    shed = run.shed;
    lost;
    makespan_us = run.makespan;
    throughput_per_s = throughput;
    goodput_per_s = per_s (run.completed - run.slo_misses);
    fault_downtime_us;
    fault_free_throughput_per_s;
    mean_latency_us = Mlv_util.Stats.mean run.latencies;
    mean_wait_us = Samples.mean run.waits;
    wait_attempts = Samples.count run.attempt_waits;
    mean_wait_per_attempt_us = Samples.mean run.attempt_waits;
    mean_service_us = Samples.mean run.services;
    p50_latency_us = p50;
    p95_latency_us = p95;
    p99_latency_us = p99;
    peak_queue = run.peak_queue;
    latencies_us = List.rev run.latencies;
    slo_misses = run.slo_misses;
    batches;
    scale_ups = run.scale_ups;
    scale_downs = run.scale_downs;
    preempted = run.preempted;
    preemptions = run.preemptions;
    defrag_moves = run.defrag_moves;
    cache_hits = cache_stat Bitstream.Cache.hits;
    cache_misses = cache_stat Bitstream.Cache.misses;
    sessions_opened = session_stat Session.opened;
    sessions_expired = session_stat Session.expired;
    sticky_hits = session_stat Session.sticky_hits;
    sticky_misses = session_stat Session.sticky_misses;
    held_results = session_stat Session.held;
    mapcache_hits = mapcache_stat Mapcache.hits;
    mapcache_misses = mapcache_stat Mapcache.misses;
    mapcache_evictions = mapcache_stat Mapcache.evictions;
    per_tenant = tenant_stats_of ~makespan_us:run.makespan run.tallies;
    scrapes = run.scrapes;
    alert_transitions = (match alerts with Some e -> Alert.transitions e | None -> []);
    loop_wall_s;
  }

let run ~registry cfg =
  (match (cfg.serving, cfg.frontend) with
  | Some s, Some f when f.predict <> None && s.autoscale = None ->
    invalid_arg "Sysim.run: frontend.predict requires serving.autoscale"
  | None, Some _ -> invalid_arg "Sysim.run: config.frontend requires serving mode"
  | _ -> ());
  (* The run stamps its spans and lifecycle events with its own
     simulator's clock, and only for as long as it runs: a simulator
     created meanwhile or a later, unrelated run never reads or
     steals it. *)
  let run = setup ~registry cfg in
  Obs.with_sim_clock
    (fun () -> Sim.now run.sim)
    (fun () -> Obs.Span.with_ "sysim.run" (fun () -> dispatch_loop run))
