(* One measured process of the repository benchmark (see README.md).

     bench.exe measure WORKLOAD SEED SETUPS
     bench.exe trace WORKLOAD SEED

   [measure] times SETUPS calls of [Sysim.build_registry], generates
   the workload's task stream from SEED with [Sysim.workload], and
   times one cold [Sysim.run] on that stream (handed over through
   [config.replay]) with lifecycle tracing off; a calibration workload
   is timed next to each of these intervals (see [calibrate]).  [trace] runs the same
   stream several times in one process and reads the per-layer
   counters and spans the program already records.  Both check every
   result and print one JSON object on the last line of standard
   output; any failed check exits 1.  run.py starts these processes,
   takes medians and prints the benchmark's result line. *)

module Sysim = Mlv_sysim.Sysim
module Genset = Mlv_workload.Genset
module Runtime = Mlv_core.Runtime
module Device = Mlv_fpga.Device
module Slo = Mlv_sched.Slo
module Batcher = Mlv_sched.Batcher
module Autoscaler = Mlv_sched.Autoscaler
module Session = Mlv_serve.Session
module Obs = Mlv_obs.Obs
module Alert = Mlv_obs.Alert

(* ---------------- workloads ---------------- *)

let s_only = { Genset.s = 1.0; m = 0.0; l = 0.0 }

(* The paper's Fig. 12 experiment: Table-1 set 7 (33/33/34 S/M/L) on
   the 4-FPGA cluster (3x XCVU37P + 1x XCKU115) under the greedy
   policy, open loop, tasks arriving back to back (200 us mean) so
   throughput is capacity-bound.  The service model's host cost depends
   on which multi-FPGA placements a stream reaches; 5,000 tasks let
   most seeds reach most of them.  Those tasks queue for up to two
   simulated minutes, so under the default 20x deadline only the few
   dozen at the head of the queue met their SLO; at 1,000x about half
   do, and the SLO metrics no longer hinge on a handful of tasks. *)
let fig12_open ~seed =
  {
    (Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6))
    with
    Sysim.tasks = 5_000;
    seed;
    slo_multiplier = 1_000.0;
  }

(* A 3:1 XCVU37P:XCKU115 mix (the shape of bench/scale.ml). *)
let three_to_one nodes =
  List.init nodes (fun i -> if i land 3 = 3 then Device.XCKU115 else Device.XCVU37P)

(* Closed-loop serving below capacity: three Poisson tenants (40/40/20)
   of S-class models on 64 nodes, batching and a reactive autoscaler.
   The S class carries an explicit deadline, above the longest
   unqueued S service time (59.3 ms), and a refill rate far above the
   offered rate, so nothing is shed.  A batch serves its tasks one
   after another and completes them together, so the misses are
   requests of the slowest S model that share a batch (README.md). *)
let steady_tasks = 120_000
let steady_mean_us = 250.0

let serve_steady ~seed =
  let tenant name share =
    Genset.tenant_load name
      ~tasks:(int_of_float (float_of_int steady_tasks *. share))
      ~arrival:(Genset.Exponential { mean_us = steady_mean_us /. share })
  in
  {
    (Sysim.default_config ~policy:Runtime.greedy ~composition:s_only) with
    Sysim.seed;
    repeats_per_task = 8;
    cluster_kinds = three_to_one 64;
    tenants = [ tenant "alice" 0.4; tenant "bob" 0.4; tenant "carol" 0.2 ];
    serving =
      Some
        {
          Sysim.default_serving with
          Sysim.classes =
            [ Slo.class_spec ~deadline_us:80_000.0 ~rate_per_s:1e7 ~burst:1_000_000 "S" ];
          batch = Batcher.config ~max_batch:4 ~max_linger_us:50.0 ();
          autoscale =
            Some
              (Autoscaler.config ~interval_us:250.0 ~high_backlog_per_replica:2.0
                 ~low_backlog_per_replica:0.0 ~cooldown_us:0.0 ~idle_timeout_us:1e9
                 ~max_replicas:64 ());
        };
  }

(* Churn and failure on a small cluster: four tenants under a diurnal
   load with a recurring flash crowd that exceeds the fleet, on the
   paper's 4-FPGA cluster.  The full front door (sticky sessions, a
   mapping cache that charges a compile cost), the bitstream cache and
   telemetry with a burn-rate alert rule are all on.  S-class models
   and whole-device placement keep the service model (perf) out of the
   picture: under the greedy policy some seeds split an S replica
   across two FPGAs, and its scale-out service time then costs ~9 s of
   host time in a run that otherwise takes under 2 s. *)
let contended_tenants = 4
let contended_tasks_per_tenant = 25_000

let contended_arrival =
  let k = float_of_int contended_tenants in
  Genset.Diurnal
    {
      period_us = 32_000.0;
      trough_mean_us = 8_000.0 *. k;
      peak_mean_us = 2_000.0 *. k;
      flash_start_us = 8_000.0;
      flash_us = 4_000.0;
      flash_mean_us = 400.0 *. k;
    }

let burn_rule =
  match
    Alert.of_string "slo-burn burn sysim.slo_missed.rate sysim.completed.rate 0.99 2 12 3 1 6"
  with
  | Ok rules -> rules
  | Error e -> failwith ("burn rule: " ^ e)

let serve_contended ~seed =
  {
    (Sysim.default_config ~policy:Runtime.baseline ~composition:s_only) with
    Sysim.seed;
    repeats_per_task = 1;
    tenants =
      List.init contended_tenants (fun i ->
          Genset.tenant_load ~tasks:contended_tasks_per_tenant ~arrival:contended_arrival
            (Printf.sprintf "t%d" (i + 1)));
    bitstream_cache = Some 8;
    serving =
      Some
        {
          Sysim.default_serving with
          Sysim.classes =
            [ Slo.class_spec ~deadline_us:20_000.0 ~rate_per_s:2_500.0 ~burst:64 "S" ];
          batch = Batcher.config ~max_batch:4 ~max_linger_us:300.0 ();
        };
    frontend =
      Some
        {
          Sysim.default_frontend with
          Sysim.sessions = Some (Session.config ~idle_timeout_us:5_000.0 ());
          mapping_cache = Some (2, 800.0);
        };
    telemetry = Some { Sysim.default_telemetry with Sysim.rules = burn_rule };
  }

(* Each workload with whether its measured run is calibrated (see
   [calibrate]).  fig12_open's ~45 s cold run spans several of the host's
   speed phases, so the calibration at its two ends does not describe it:
   scaled, its run_wall_s spread 40% over six seeds, unscaled 11% over
   ten.  Its run is reported as measured. *)
let workloads =
  [
    ("fig12_open", (fig12_open, false));
    ("serve_steady", (serve_steady, true));
    ("serve_contended", (serve_contended, true));
  ]

(* ---------------- result fields ---------------- *)

(* A result's exact bytes with the wall clock [loop_wall_s] zeroed:
   every other field, present or added later, takes part. *)
let scrub (r : Sysim.result) = { r with Sysim.loop_wall_s = 0.0 }

let key r = Marshal.to_string (scrub r) [ Marshal.No_sharing ]

(* [key] blind to telemetry's own fields too, for comparing a run with
   telemetry against the same run without it. *)
let core_key r = key { r with Sysim.scrapes = 0; alert_transitions = [] }

let digest r = Digest.to_hex (Digest.string (key r))

(* ---------------- checks ---------------- *)

let min_completed = 1_000

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let check ~tasks (r : Sysim.result) =
  let accounted =
    r.Sysim.completed + r.Sysim.rejected + r.Sysim.shed + r.Sysim.preempted
    + r.Sysim.lost
  in
  if accounted <> tasks then
    fail "tasks %d <> completed %d + rejected %d + shed %d + preempted %d + lost %d"
      tasks r.Sysim.completed r.Sysim.rejected r.Sysim.shed r.Sysim.preempted
      r.Sysim.lost;
  if r.Sysim.lost <> 0 then fail "lost = %d, expected 0" r.Sysim.lost;
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      let sum =
        t.Sysim.tn_completed + t.Sysim.tn_shed + t.Sysim.tn_rejected
        + t.Sysim.tn_preempted_lost
      in
      if t.Sysim.tn_arrived <> sum then
        fail "tenant %s: arrived %d <> completed + shed + rejected + preempted %d"
          t.Sysim.tn_name t.Sysim.tn_arrived sum)
    r.Sysim.per_tenant;
  (match r.Sysim.per_tenant with
  | [] -> ()
  | ts ->
    let total f = List.fold_left (fun acc t -> acc + f t) 0 ts in
    List.iter
      (fun (what, per_tenant, global) ->
        if per_tenant <> global then
          fail "tenant %s sum %d <> global %d" what per_tenant global)
      [
        ("arrived", total (fun t -> t.Sysim.tn_arrived), tasks);
        ("completed", total (fun t -> t.Sysim.tn_completed), r.Sysim.completed);
        ("shed", total (fun t -> t.Sysim.tn_shed), r.Sysim.shed);
        ("rejected", total (fun t -> t.Sysim.tn_rejected), r.Sysim.rejected);
        ("preempted", total (fun t -> t.Sysim.tn_preempted_lost), r.Sysim.preempted);
        ("slo_misses", total (fun t -> t.Sysim.tn_slo_misses), r.Sysim.slo_misses);
      ]);
  if r.Sysim.completed < min_completed then
    fail "completed %d < %d" r.Sysim.completed min_completed;
  let samples = List.length r.Sysim.latencies_us in
  if samples <> r.Sysim.completed then
    fail "%d sojourn samples for %d completions" samples r.Sysim.completed;
  if r.Sysim.slo_misses < 0 || r.Sysim.slo_misses > r.Sysim.completed then
    fail "slo_misses %d outside [0, completed %d]" r.Sysim.slo_misses r.Sysim.completed;
  if not (r.Sysim.makespan_us > 0.0) then fail "makespan %g" r.Sysim.makespan_us;
  if not (r.Sysim.p50_latency_us <= r.Sysim.p99_latency_us) then
    fail "p50 %g > p99 %g" r.Sysim.p50_latency_us r.Sysim.p99_latency_us

let same ~what ?(key = key) a b =
  if key a <> key b then
    fail "%s differs from the first run" what

(* ---------------- measurement helpers ---------------- *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Words allocated by this domain so far (minor + major - promoted). *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* End-to-end sim-clock metrics: deterministic for a given seed. *)
let sim_metrics ~tasks (r : Sysim.result) =
  [
    ("throughput_per_s", r.Sysim.throughput_per_s);
    ("goodput_per_s", r.Sysim.goodput_per_s);
    ("p50_sojourn_ms", r.Sysim.p50_latency_us /. 1000.0);
    ("p99_sojourn_ms", r.Sysim.p99_latency_us /. 1000.0);
    ("slo_met_ratio", ratio (r.Sysim.completed - r.Sysim.slo_misses) tasks);
    ("completed_ratio", ratio r.Sysim.completed tasks);
  ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ---------------- output ---------------- *)

let num x = Printf.sprintf "%.17g" x

let str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c -> Buffer.add_char b '\\'; Buffer.add_char b c
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"

let num_obj kvs = obj (List.map (fun (k, v) -> (k, num v)) kvs)

(* ---------------- modes ---------------- *)

let prepare config ~seed =
  let cfg = config ~seed in
  let stream = Sysim.workload cfg in
  (cfg, { cfg with Sysim.replay = Some stream }, List.length stream)

(* A fixed workload of the standard library alone (sorting and hashing),
   so that no change to the program can move it.  Timed next to each
   measurement, it tells run.py how fast the host was at that moment.
   It allocates nothing after its first call, so it leaves the measured
   heap alone. *)
let calibration_src = lazy (Array.init 100_000 (fun i -> i * 7919 mod 1_000_003))
let calibration_buf = lazy (Array.make 100_000 0)

let calibrate () =
  let src = Lazy.force calibration_src and buf = Lazy.force calibration_buf in
  let t0 = now () in
  for _ = 1 to 4 do
    Array.blit src 0 buf 0 (Array.length src);
    Array.sort (fun (a : int) b -> compare a b) buf
  done;
  let h = ref 0 in
  for i = 0 to 2_000_000 do
    h := !h lxor Hashtbl.hash (i * 31)
  done;
  ignore (Sys.opaque_identity !h);
  now () -. t0

(* [f]'s wall time and the mean calibration time right before and after. *)
let calibrated ?(before = calibrate ()) f =
  let v, s = timed f in
  let after = calibrate () in
  (v, s, (before +. after) /. 2.0, after)

let measure (config, calibrated_run) ~seed ~setups =
  let rec builds before n =
    let registry, s, cal, after = calibrated ~before Sysim.build_registry in
    if n = 1 then (registry, [ (s, cal) ])
    else
      let last, rest = builds after (n - 1) in
      (last, (s, cal) :: rest)
  in
  let registry, setups = builds (calibrate ()) setups in
  let _, cfg, tasks = prepare config ~seed in
  let run () = Sysim.run ~registry cfg in
  let r, run_wall_s, run_cal_s =
    if calibrated_run then begin
      let before = calibrate () in
      Gc.compact ();
      let r, s, cal, _ = calibrated ~before run in
      (r, s, [ ("run_cal_s", num cal) ])
    end
    else begin
      Gc.compact ();
      let r, s = timed run in
      (r, s, [])
    end
  in
  let heap = peak_heap_mb () in
  check ~tasks r;
  obj
    ([
      ("tasks", string_of_int tasks);
      ("sojourn_samples", string_of_int r.Sysim.completed);
      ("rejected", string_of_int r.Sysim.rejected);
      ("shed", string_of_int r.Sysim.shed);
      ("preempted", string_of_int r.Sysim.preempted);
      ("digest", str (digest r));
      ("setup_s", "[" ^ String.concat ", " (List.map (fun (s, _) -> num s) setups) ^ "]");
      ("setup_cal_s", "[" ^ String.concat ", " (List.map (fun (_, c) -> num c) setups) ^ "]");
      ("run_wall_s", num run_wall_s);
      ("peak_heap_mb", num heap);
      ("sim", num_obj (sim_metrics ~tasks r));
    ]
    @ run_cal_s)

let counter name = Obs.Counter.value (Obs.Counter.get name)

let span_s name = Obs.Histogram.sum (Obs.Histogram.get ("span." ^ name ^ ".wall_us")) /. 1e6

(* The warm reruns: every service time is memoized by now. *)
let warm_runs = 3

let trace (config, _) ~seed =
  (* framework: one registry build, its spans and its allocation. *)
  Obs.reset ();
  let a0 = allocated_words () in
  let registry, build_s = timed Sysim.build_registry in
  let build_alloc = allocated_words () -. a0 in
  let framework =
    [
      ("framework.build_s", build_s);
      ("framework.decompose_s", span_s "decompose");
      ("framework.partition_s", span_s "partition");
      ("framework.mapping_s", span_s "mapping.compile");
      ("framework.alloc_mw", build_alloc /. 1e6);
    ]
  in
  let self_cfg, cfg, tasks = prepare config ~seed in
  let run cfg =
    Obs.reset ();
    Gc.compact ();
    timed (fun () -> Sysim.run ~registry cfg)
  in
  (* The cold run: service times are computed on first sight. *)
  Obs.reset ();
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let a0 = allocated_words () in
  let first, cold_s = timed (fun () -> Sysim.run ~registry cfg) in
  let run_alloc = allocated_words () -. a0 in
  let major_gcs = (Gc.quick_stat ()).Gc.major_collections - g0.Gc.major_collections in
  check ~tasks first;
  let deploy_ok = counter "runtime.deploy.ok" and deploy_fail = counter "runtime.deploy.fail" in
  let deploy_busy_s = span_s "deploy" in
  let undeploys = counter "runtime.undeploy" in
  let migrations = counter "runtime.migrate.ok" + counter "runtime.migrate.fail" in
  let events = counter "sim.events_processed" in
  (* Warm reruns of the same stream must reproduce the first run. *)
  let warm =
    List.init warm_runs (fun _ ->
        let r, s = run cfg in
        same ~what:"warm in-process rerun" first r;
        s)
  in
  let warm_s = median warm in
  (* The self-generated stream must equal the replayed one. *)
  let self, _ = run self_cfg in
  same ~what:"self-generated run" first self;
  (* Lifecycle tracing on: same results, more wall time. *)
  Obs.Trace.set_enabled true;
  let traced, traced_s = run cfg in
  Obs.Trace.set_enabled false;
  same ~what:"traced run" first traced;
  (* Telemetry off: every simulated field except telemetry's own. *)
  let telemetry_s, reruns =
    let reruns = Printf.sprintf "%d warm, self-generated, traced" warm_runs in
    match cfg.Sysim.telemetry with
    | None -> (0.0, reruns)
    | Some _ ->
      let quiet, quiet_s = run { cfg with Sysim.telemetry = None } in
      same ~what:"telemetry-off run" ~key:core_key first quiet;
      (warm_s -. quiet_s, reruns ^ ", telemetry-off")
  in
  let r = first in
  let dispatched = r.Sysim.completed + r.Sysim.preempted in
  let first_sight_s = cold_s -. warm_s in
  let layers =
    framework
    @ [
        ("perf.first_sight_s", first_sight_s);
        ("perf.first_sight_share", first_sight_s /. cold_s);
        ("runtime.deploy_calls", float_of_int (deploy_ok + deploy_fail));
        ("runtime.deploy_ok_ratio", ratio deploy_ok (deploy_ok + deploy_fail));
        ("runtime.deploy_busy_s", deploy_busy_s);
        ("runtime.undeploys", float_of_int undeploys);
        ("runtime.migrations", float_of_int migrations);
        ( "runtime.bitstream_hit_ratio",
          ratio r.Sysim.cache_hits (r.Sysim.cache_hits + r.Sysim.cache_misses) );
        ("sched.batches", float_of_int r.Sysim.batches);
        ("sched.mean_batch", ratio dispatched r.Sysim.batches);
        ("sched.scale_ups", float_of_int r.Sysim.scale_ups);
        ("sched.scale_downs", float_of_int r.Sysim.scale_downs);
        ("sched.shed_ratio", ratio r.Sysim.shed tasks);
        ("sched.mean_wait_ms", r.Sysim.mean_wait_us /. 1000.0);
        ( "serve.mapcache_hit_ratio",
          ratio r.Sysim.mapcache_hits (r.Sysim.mapcache_hits + r.Sysim.mapcache_misses) );
        ( "serve.sticky_hit_ratio",
          ratio r.Sysim.sticky_hits (r.Sysim.sticky_hits + r.Sysim.sticky_misses) );
        ("serve.held_results", float_of_int r.Sysim.held_results);
        ("sim.events", float_of_int events);
        ("sim.host_us_per_event", r.Sysim.loop_wall_s *. 1e6 /. float_of_int (max 1 events));
        ("sysim.loop_s", r.Sysim.loop_wall_s);
        ("sysim.outside_loop_s", cold_s -. r.Sysim.loop_wall_s);
        ("sysim.alloc_mw", run_alloc /. 1e6);
        ("sysim.major_gcs", float_of_int major_gcs);
        ("obs.scrapes", float_of_int r.Sysim.scrapes);
        ("obs.alert_transitions", float_of_int (List.length r.Sysim.alert_transitions));
        ("obs.telemetry_s", telemetry_s);
        ("obs.trace_overhead_s", traced_s -. warm_s);
      ]
  in
  obj
    [
      ("tasks", string_of_int tasks);
      ("digest", str (digest first));
      ("reruns", str reruns);
      ("per_layer", num_obj layers);
    ]

let usage () =
  prerr_endline "usage: bench.exe measure WORKLOAD SEED SETUPS | bench.exe trace WORKLOAD SEED";
  exit 2

let () =
  let workload name =
    match List.assoc_opt name workloads with Some w -> w | None -> usage ()
  in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let line =
    try
      match Array.to_list Sys.argv with
      | [ _; "measure"; w; seed; setups ] when int_arg setups > 0 ->
        measure (workload w) ~seed:(int_arg seed) ~setups:(int_arg setups)
      | [ _; "trace"; w; seed ] -> trace (workload w) ~seed:(int_arg seed)
      | _ -> usage ()
    with Check_failed msg ->
      print_endline (obj [ ("error", str msg) ]);
      exit 1
  in
  print_endline line
