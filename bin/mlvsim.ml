(* mlvsim — system-level simulation driver.

   Plays a Table-1 workload set against the heterogeneous cluster
   under a chosen runtime policy and reports throughput and latency
   statistics. *)

open Cmdliner
module Runtime = Mlv_core.Runtime
module Genset = Mlv_workload.Genset
module Sysim = Mlv_sysim.Sysim
module Fault_plan = Mlv_cluster.Fault_plan
module Slo = Mlv_sched.Slo
module Batcher = Mlv_sched.Batcher
module Autoscaler = Mlv_sched.Autoscaler

(* --burst ON:OFF:ON_IA:OFF_IA, all microseconds *)
let burst_of_string s =
  match String.split_on_char ':' s |> List.map float_of_string_opt with
  | [ Some on_us; Some off_us; Some on_mean_us; Some off_mean_us ]
    when on_us > 0.0 && off_us > 0.0 && on_mean_us > 0.0 && off_mean_us > 0.0 ->
    Ok (Genset.Bursty { on_us; off_us; on_mean_us; off_mean_us })
  | _ -> Error "expected ON_US:OFF_US:ON_MEAN_US:OFF_MEAN_US, all positive"

(* --diurnal PERIOD:TROUGH:PEAK[:FSTART:FLEN:FMEAN], all microseconds *)
let diurnal_of_string s =
  let fields = String.split_on_char ':' s |> List.map float_of_string_opt in
  match fields with
  | [ Some period_us; Some trough_mean_us; Some peak_mean_us ]
    when period_us > 0.0 && peak_mean_us > 0.0 && trough_mean_us >= peak_mean_us
    ->
    Ok
      (Genset.Diurnal
         {
           period_us;
           trough_mean_us;
           peak_mean_us;
           flash_start_us = 0.0;
           flash_us = 0.0;
           flash_mean_us = 0.0;
         })
  | [ Some period_us;
      Some trough_mean_us;
      Some peak_mean_us;
      Some flash_start_us;
      Some flash_us;
      Some flash_mean_us;
    ]
    when period_us > 0.0 && peak_mean_us > 0.0
         && trough_mean_us >= peak_mean_us
         && flash_start_us >= 0.0 && flash_us > 0.0 && flash_mean_us > 0.0
         && flash_start_us +. flash_us <= period_us ->
    Ok
      (Genset.Diurnal
         {
           period_us;
           trough_mean_us;
           peak_mean_us;
           flash_start_us;
           flash_us;
           flash_mean_us;
         })
  | _ ->
    Error
      "expected PERIOD:TROUGH:PEAK[:FSTART:FLEN:FMEAN] with PERIOD > 0, \
       TROUGH >= PEAK > 0, and the flash window inside the period"

(* --mapping-cache N[:COMPILE_US] *)
let mapcache_of_string s =
  match String.split_on_char ':' s with
  | [ n ] -> (
    match int_of_string_opt n with
    | Some capacity when capacity > 0 -> Ok (capacity, 500.0)
    | _ -> Error "expected N[:COMPILE_US] with N > 0")
  | [ n; cost ] -> (
    match (int_of_string_opt n, float_of_string_opt cost) with
    | Some capacity, Some compile_us when capacity > 0 && compile_us >= 0.0 ->
      Ok (capacity, compile_us)
    | _ -> Error "expected N[:COMPILE_US] with N > 0 and COMPILE_US >= 0")
  | _ -> Error "expected N[:COMPILE_US]"

(* --batch N[:LINGER_US] *)
let batch_of_string s =
  match String.split_on_char ':' s with
  | [ n ] -> (
    match int_of_string_opt n with
    | Some max_batch when max_batch > 0 -> Ok (Batcher.config ~max_batch ())
    | _ -> Error "expected N[:LINGER_US] with N > 0")
  | [ n; linger ] -> (
    match (int_of_string_opt n, float_of_string_opt linger) with
    | Some max_batch, Some max_linger_us when max_batch > 0 ->
      Ok (Batcher.config ~max_batch ~max_linger_us ())
    | _ -> Error "expected N[:LINGER_US] with N > 0")
  | _ -> Error "expected N[:LINGER_US]"

(* --slo DEADLINE_US:RATE_PER_S:BURST, applied to every model class
   with priority by size (small models shed last) *)
let slo_of_string s =
  match String.split_on_char ':' s with
  | [ deadline; rate; burst ] -> (
    match
      (float_of_string_opt deadline, float_of_string_opt rate, int_of_string_opt burst)
    with
    | Some deadline_us, Some rate_per_s, Some burst -> (
      try
        Ok
          (List.mapi
             (fun i name ->
               Slo.class_spec ~priority:(2 - i) ~deadline_us ~rate_per_s ~burst
                 name)
             [ "S"; "M"; "L" ])
      with Invalid_argument e -> Error e)
    | _ -> Error "expected DEADLINE_US:RATE_PER_S:BURST")
  | _ -> Error "expected DEADLINE_US:RATE_PER_S:BURST"

let policy_of_string = function
  | "greedy" -> Ok Runtime.greedy
  | "restricted" -> Ok Runtime.restricted
  | "baseline" -> Ok Runtime.baseline
  | "first-fit" -> Ok Runtime.first_fit
  | s -> Error (`Msg (Printf.sprintf "unknown policy %s" s))

let policy_conv =
  Arg.conv
    ( (fun s -> policy_of_string s),
      fun fmt p -> Format.pp_print_string fmt p.Runtime.policy_name )

let report ~preempt ?faults ?serving ?frontend set composition policy tasks seed
    (r : Sysim.result) =
  Printf.printf "workload set %d (%s), policy %s, %d tasks, seed %d\n" set
    (Genset.composition_name composition)
    policy.Runtime.policy_name tasks seed;
  Printf.printf "  completed:       %d\n" r.Sysim.completed;
  Printf.printf "  makespan:        %.1f ms\n" (r.Sysim.makespan_us /. 1000.0);
  Printf.printf "  throughput:      %.2f tasks/s\n" r.Sysim.throughput_per_s;
  (match faults with
  | None -> ()
  | Some (f : Sysim.fault_config) ->
    Printf.printf "  fault plan:      %s (max %d retries/task)\n"
      (Fault_plan.to_string f.Sysim.plan)
      f.Sysim.max_retries;
    Printf.printf "  retried:         %d\n" r.Sysim.retried;
    Printf.printf "  rejected:        %d\n" r.Sysim.rejected;
    Printf.printf "  lost:            %d\n" r.Sysim.lost;
    Printf.printf "  downtime:        %.1f ms\n" (r.Sysim.fault_downtime_us /. 1000.0);
    Printf.printf "  fault-free tput: %.2f tasks/s\n" r.Sysim.fault_free_throughput_per_s);
  (match serving with
  | None -> ()
  | Some (s : Sysim.serving) ->
    Printf.printf "  serving:         batch<=%d linger=%.0fus autoscale=%s\n"
      s.Sysim.batch.Batcher.max_batch s.Sysim.batch.Batcher.max_linger_us
      (if s.Sysim.autoscale = None then "off" else "on");
    Printf.printf "  shed:            %d\n" r.Sysim.shed;
    if faults = None then Printf.printf "  rejected:        %d\n" r.Sysim.rejected;
    Printf.printf "  batches:         %d\n" r.Sysim.batches;
    Printf.printf "  scale up/down:   %d/%d\n" r.Sysim.scale_ups r.Sysim.scale_downs;
    if preempt then
      Printf.printf "  preempted:       %d tasks (%d evictions)\n"
        r.Sysim.preempted r.Sysim.preemptions;
    (match s.Sysim.defrag with
    | Some _ -> Printf.printf "  defrag moves:    %d\n" r.Sysim.defrag_moves
    | None -> ());
    (match frontend with
    | None -> ()
    | Some (f : Sysim.frontend) ->
      (match f.Sysim.sessions with
      | None -> ()
      | Some _ ->
        Printf.printf
          "  sessions:        %d opened, %d expired, sticky %d/%d, held %d\n"
          r.Sysim.sessions_opened r.Sysim.sessions_expired r.Sysim.sticky_hits
          r.Sysim.sticky_misses r.Sysim.held_results);
      (match f.Sysim.mapping_cache with
      | None -> ()
      | Some _ ->
        let lookups = r.Sysim.mapcache_hits + r.Sysim.mapcache_misses in
        Printf.printf
          "  mapping cache:   %d hits / %d misses (%.0f%% hit rate), %d \
           evictions\n"
          r.Sysim.mapcache_hits r.Sysim.mapcache_misses
          (if lookups = 0 then 0.0
           else 100.0 *. float_of_int r.Sysim.mapcache_hits /. float_of_int lookups)
          r.Sysim.mapcache_evictions);
      if f.Sysim.predict <> None then
        Printf.printf "  autoscaler:      predictive (Holt-Winters forecast)\n");
    Printf.printf "  goodput:         %.2f tasks/s\n" r.Sysim.goodput_per_s;
    Printf.printf "  p50/p95/p99:     %.1f / %.1f / %.1f ms\n"
      (r.Sysim.p50_latency_us /. 1000.0)
      (r.Sysim.p95_latency_us /. 1000.0)
      (r.Sysim.p99_latency_us /. 1000.0));
  Printf.printf "  mean latency:    %.1f ms\n" (r.Sysim.mean_latency_us /. 1000.0);
  Printf.printf "  mean wait:       %.1f ms\n" (r.Sysim.mean_wait_us /. 1000.0);
  Printf.printf "  mean service:    %.1f ms\n" (r.Sysim.mean_service_us /. 1000.0);
  Printf.printf "  peak queue:      %d\n" r.Sysim.peak_queue;
  Printf.printf "  SLO misses:      %d of %d\n" r.Sysim.slo_misses r.Sysim.completed;
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      Printf.printf
        "  tenant %-8s arrived %d shed %d completed %d goodput %.2f/s p99 %.1f ms\n"
        t.Sysim.tn_name t.Sysim.tn_arrived t.Sysim.tn_shed t.Sysim.tn_completed
        t.Sysim.tn_goodput_per_s
        (t.Sysim.tn_p99_latency_us /. 1000.0))
    r.Sysim.per_tenant;
  if r.Sysim.cache_hits + r.Sysim.cache_misses > 0 then
    Printf.printf "  bitstream cache: %d hits / %d misses (%.0f%% hit rate)\n"
      r.Sysim.cache_hits r.Sysim.cache_misses
      (100.0
      *. float_of_int r.Sysim.cache_hits
      /. float_of_int (r.Sysim.cache_hits + r.Sysim.cache_misses));
  if r.Sysim.scrapes > 0 then begin
    Printf.printf "  scrapes:         %d\n" r.Sysim.scrapes;
    Printf.printf "  alert events:    %d\n" (List.length r.Sysim.alert_transitions);
    List.iter
      (fun (tr : Mlv_obs.Alert.transition) ->
        Printf.printf "    %12.1f us  %-20s %-8s value=%.4f\n"
          tr.Mlv_obs.Alert.at_us tr.Mlv_obs.Alert.rule_name
          (Mlv_obs.Alert.event_name tr.Mlv_obs.Alert.event)
          tr.Mlv_obs.Alert.value)
      r.Sysim.alert_transitions
  end;
  (match Mlv_workload.Metrics.summarize (List.map (fun l -> l /. 1000.0) r.Sysim.latencies_us) with
  | Some s ->
    Format.printf "  latency (ms):    %a@." (Mlv_workload.Metrics.pp_summary ~unit_name:"ms") s
  | None -> ())

let run set policy tasks seed interarrival repeats compare fault_plan max_retries
    burst diurnal batch autoscale slo tenants preempt defrag sessions
    mapping_cache predict replay record bitstream_cache metrics_out
    trace_out scrape_interval alerts series_out prom_out =
  let ( let* ) r f = Result.bind r f in
  let parsed =
    let* faults =
      match fault_plan with
      | None -> Ok None
      | Some s -> (
        match Fault_plan.of_string s with
        | Ok plan -> Ok (Some { Sysim.plan; max_retries })
        | Error e -> Error ("bad --fault-plan: " ^ e))
    in
    let* arrival =
      match (burst, diurnal) with
      | Some _, Some _ -> Error "--burst and --diurnal are mutually exclusive"
      | Some s, None -> (
        match burst_of_string s with
        | Ok a -> Ok (Some a)
        | Error e -> Error ("bad --burst: " ^ e))
      | None, Some s -> (
        match diurnal_of_string s with
        | Ok a -> Ok (Some a)
        | Error e -> Error ("bad --diurnal: " ^ e))
      | None, None -> Ok None
    in
    let* batch =
      match batch with
      | None -> Ok None
      | Some s -> (
        match batch_of_string s with
        | Ok b -> Ok (Some b)
        | Error e -> Error ("bad --batch: " ^ e))
    in
    let* classes =
      match slo with
      | None -> Ok None
      | Some s -> (
        match slo_of_string s with
        | Ok cs -> Ok (Some cs)
        | Error e -> Error ("bad --slo: " ^ e))
    in
    let* frontend_sessions =
      match sessions with
      | None -> Ok None
      | Some us when us > 0.0 ->
        Ok (Some (Mlv_serve.Session.config ~idle_timeout_us:us ()))
      | Some _ -> Error "--sessions idle timeout must be positive"
    in
    let* frontend_cache =
      match mapping_cache with
      | None -> Ok None
      | Some s -> (
        match mapcache_of_string s with
        | Ok mc -> Ok (Some mc)
        | Error e -> Error ("bad --mapping-cache: " ^ e))
    in
    let* () =
      if predict && not autoscale then
        Error "--predict requires --autoscale (it replaces its control law)"
      else Ok ()
    in
    let frontend =
      if frontend_sessions = None && frontend_cache = None && not predict then
        None
      else
        Some
          {
            Sysim.sessions = frontend_sessions;
            mapping_cache = frontend_cache;
            predict = (if predict then Some Autoscaler.default_predict else None);
          }
    in
    (* any serving knob switches the engine to closed-loop mode *)
    let serving =
      if batch = None && classes = None && (not autoscale) && (not preempt)
         && not defrag && frontend = None
      then None
      else
        (* With --tenants, the --slo token bucket also sizes a
           weighted fair-share pool split equally across the tenants
           (each tenant refills at rate/N). *)
        let tenant_pool =
          match classes with
          | Some (spec :: _) when tenants > 0 ->
            Some (spec.Slo.rate_per_s, spec.Slo.burst)
          | _ -> None
        in
        Some
          {
            Sysim.classes = Option.value classes ~default:[];
            batch = Option.value batch ~default:(Batcher.config ());
            autoscale = (if autoscale then Some Autoscaler.default else None);
            tenant_pool;
            defrag = (if defrag then Some Mlv_core.Defrag.default else None);
          }
    in
    let* rules =
      match alerts with
      | None -> Ok []
      | Some s -> (
        match Mlv_obs.Alert.of_string s with
        | Ok rs -> Ok rs
        | Error e -> Error ("bad --alerts: " ^ e))
    in
    (* --alerts alone enables telemetry at the default cadence;
       --scrape-interval alone publishes series with no rules. *)
    let* telemetry =
      match (scrape_interval, rules) with
      | None, [] -> Ok None
      | Some iv, _ when not (iv > 0.0) ->
        Error "--scrape-interval must be positive"
      | iv, rules ->
        Ok
          (Some
             {
               Sysim.rules;
               scrape_interval_us =
                 Option.value iv
                   ~default:Sysim.default_telemetry.Sysim.scrape_interval_us;
             })
    in
    if tenants < 0 then Error "--tenants must be non-negative"
    else if tenants > tasks then Error "--tenants cannot exceed --tasks"
    else if preempt && tenants < 2 then
      Error "--preempt needs --tenants >= 2 (the first tenant gets priority)"
    else if bitstream_cache < 0 then
      Error "--bitstream-cache must be non-negative"
    else if replay <> None && record <> None then
      Error "--replay and --record are mutually exclusive"
    else if replay <> None && tenants > 0 then
      Error
        "--replay carries its own tenant names; it does not compose with \
         --tenants"
    else Ok (faults, arrival, serving, telemetry, frontend)
  in
  match parsed with
  | Error e ->
    prerr_endline e;
    1
  | Ok _ when set < 1 || set > 10 ->
    prerr_endline "workload set must be 1..10";
    1
  | Ok (faults, arrival, serving, telemetry, frontend) ->
    if trace_out <> None then Mlv_obs.Obs.Trace.set_enabled true;
    Printf.printf "building the mapping database (10 accelerator instances)...\n%!";
    let registry = Sysim.build_registry () in
    let composition = Genset.table1.(set - 1) in
    let tenant_loads =
      if tenants = 0 then []
      else
        (* Each tenant runs the stream the flags describe; with the
           default exponential process the per-tenant mean is scaled by
           N so the merged stream keeps the requested rate. *)
        let tenant_arrival =
          match arrival with
          | Some a -> a
          | None ->
            Genset.Exponential { mean_us = interarrival *. float_of_int tenants }
        in
        List.init tenants (fun i ->
            let extra = if i < tasks mod tenants then 1 else 0 in
            (* With --preempt the first tenant is the SLO-class one:
               its batches may evict the others' replicas. *)
            let priority = if preempt && i = 0 then 1 else 0 in
            Genset.tenant_load
              ~tasks:((tasks / tenants) + extra)
              ~arrival:tenant_arrival ~priority
              (Printf.sprintf "t%d" (i + 1)))
    in
    let mk_cfg policy replay_tasks =
      {
        (Sysim.default_config ~policy ~composition) with
        Sysim.tasks;
        arrival =
          (match arrival with
          | Some a -> a
          | None -> Genset.Exponential { mean_us = interarrival });
        seed;
        repeats_per_task = repeats;
        faults;
        serving;
        tenants = tenant_loads;
        bitstream_cache =
          (if bitstream_cache > 0 then Some bitstream_cache else None);
        telemetry;
        frontend;
        replay = replay_tasks;
      }
    in
    (* --replay drives the run from a recorded trace; --record captures
       the stream this config would generate, then replays it so the
       run exercises the very trace it wrote. *)
    let replayed =
      match (replay, record) with
      | Some path, _ -> (
        match Mlv_serve.Trace_file.read path with
        | Ok ts -> Ok (Some ts)
        | Error e -> Error (Printf.sprintf "cannot replay %s: %s" path e))
      | None, Some path -> (
        let ts = Sysim.workload (mk_cfg policy None) in
        try
          Mlv_serve.Trace_file.write path ts;
          Printf.printf "trace recorded to %s (%d tasks)\n" path
            (List.length ts);
          Ok (Some ts)
        with Sys_error e -> Error ("cannot record trace: " ^ e))
      | None, None -> Ok None
    in
    (match replayed with
    | Error e ->
      prerr_endline e;
      1
    | Ok replay_tasks ->
    let shown_tasks =
      match replay_tasks with Some ts -> List.length ts | None -> tasks
    in
    let run_one policy =
      report ~preempt ?faults ?serving ?frontend set composition policy shown_tasks seed
        (Sysim.run ~registry (mk_cfg policy replay_tasks))
    in
    if compare then
      List.iter run_one [ Runtime.baseline; Runtime.restricted; Runtime.greedy ]
    else run_one policy;
    let wrote_metrics =
      match metrics_out with
      | None -> 0
      | Some path -> (
        try
          Mlv_obs.Obs.write_json path;
          Printf.printf "metrics written to %s\n" path;
          0
        with Sys_error e ->
          Printf.eprintf "cannot write metrics: %s\n" e;
          1)
    in
    let wrote_trace =
      match trace_out with
      | None -> 0
      | Some path -> (
        try
          Mlv_obs.Obs.Trace.write_chrome_json path;
          Printf.printf "trace written to %s (%d events, %d dropped)\n" path
            (Mlv_obs.Obs.Trace.recorded ())
            (Mlv_obs.Obs.Trace.dropped ());
          0
        with Sys_error e ->
          Printf.eprintf "cannot write trace: %s\n" e;
          1)
    in
    let wrote_series =
      match series_out with
      | None -> 0
      | Some path -> (
        try
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () ->
              output_string oc
                (Mlv_obs.Obs.Json.to_string (Mlv_obs.Series.registry_json ()));
              output_char oc '\n');
          Printf.printf "series written to %s\n" path;
          0
        with Sys_error e ->
          Printf.eprintf "cannot write series: %s\n" e;
          1)
    in
    let wrote_prom =
      match prom_out with
      | None -> 0
      | Some path -> (
        try
          Mlv_obs.Prometheus.write path;
          Printf.printf "prometheus exposition written to %s\n" path;
          0
        with Sys_error e ->
          Printf.eprintf "cannot write prometheus exposition: %s\n" e;
          1)
    in
    max (max wrote_metrics wrote_trace) (max wrote_series wrote_prom))

let set_arg =
  Arg.(value & opt int 7 & info [ "set" ] ~docv:"N" ~doc:"Table-1 workload set (1-10)")

let policy_arg =
  Arg.(
    value
    & opt policy_conv Runtime.greedy
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Runtime policy: greedy, restricted, baseline or first-fit")

let tasks_arg = Arg.(value & opt int 120 & info [ "tasks" ] ~docv:"N" ~doc:"Task count")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed")

let interarrival_arg =
  Arg.(
    value & opt float 200.0
    & info [ "interarrival" ] ~docv:"US" ~doc:"Mean inter-arrival time (microseconds)")

let repeats_arg =
  Arg.(
    value & opt int 20
    & info [ "repeats" ] ~docv:"N" ~doc:"Inferences served per deployment")

let compare_arg =
  Arg.(
    value & flag
    & info [ "compare" ] ~doc:"Run baseline, restricted and greedy policies side by side")

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Inject faults during the run: comma-separated \
           crash@<time_us>:<node>, restore@<time_us>:<node> and \
           degrade@<time_us>:<added_latency_us> events (e.g. \
           'crash@8000:1,restore@20000:1')")

let max_retries_arg =
  Arg.(
    value & opt int 3
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"Crash interruptions a task survives before rejection")

let burst_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "burst" ] ~docv:"SPEC"
        ~doc:
          "Replace the exponential arrival stream with a two-rate bursty \
           cycle ON_US:OFF_US:ON_MEAN_US:OFF_MEAN_US (e.g. \
           '2000:8000:50:2000' — 2 ms bursts at 50 µs mean spacing, then \
           8 ms of 2 ms spacing)")

let diurnal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "diurnal" ] ~docv:"SPEC"
        ~doc:
          "Replace the exponential arrival stream with a day-night load \
           curve PERIOD_US:TROUGH_MEAN_US:PEAK_MEAN_US, optionally with a \
           flash-crowd window :FSTART_US:FLEN_US:FMEAN_US at a fixed phase \
           of every cycle (e.g. '32000:2000:200:8000:2000:20').  Mutually \
           exclusive with $(b,--burst)")

let batch_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "batch" ] ~docv:"N[:LINGER_US]"
        ~doc:
          "Enable closed-loop serving with dynamic batching: coalesce up \
           to $(docv) same-instance requests, flushing a partial batch \
           after LINGER_US microseconds (default 300)")

let autoscale_arg =
  Arg.(
    value & flag
    & info [ "autoscale" ]
        ~doc:
          "Enable closed-loop serving with the hysteresis autoscaler \
           (scale replica groups from queue depth and observed p99 \
           sojourn)")

let slo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slo" ] ~docv:"DEADLINE_US:RATE_PER_S:BURST"
        ~doc:
          "Enable closed-loop serving with an SLO admission gate: every \
           model class gets this deadline and token bucket, with \
           priority by size (small models shed last)")

let tenants_arg =
  Arg.(
    value & opt int 0
    & info [ "tenants" ] ~docv:"N"
        ~doc:
          "Split the workload across $(docv) equal-weight tenants (t1..tN), \
           each drawing its own arrival stream from its own seed split; the \
           report gains per-tenant accounting lines.  Combined with \
           $(b,--slo), the admission gate also enforces a weighted \
           fair-share pool sized by the SLO's rate and burst (each tenant \
           entitled to 1/N of it).  0 (the default) keeps the \
           single-tenant stream")

let preempt_arg =
  Arg.(
    value & flag
    & info [ "preempt" ]
        ~doc:
          "Enable closed-loop serving with priority preemption: the first \
           tenant becomes the SLO-class tenant (priority 1) and, when its \
           batches cannot be placed, evicts a best-effort tenant's replica \
           (migrate-or-undeploy) instead of backlogging.  Requires \
           $(b,--tenants) >= 2")

let defrag_arg =
  Arg.(
    value & flag
    & info [ "defrag" ]
        ~doc:
          "Enable closed-loop serving with background defragmentation: \
           when no group has backlog and the fragmentation index crosses \
           the threshold, idle replicas are force-migrated into denser \
           packings so whole devices free up for large accelerators")

let sessions_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "sessions" ] ~docv:"IDLE_US"
        ~doc:
          "Enable front-door client sessions (one per tenant): sticky \
           replica routing, in-order result delivery, and idle expiry \
           after $(docv) microseconds without a request")

let mapping_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mapping-cache" ] ~docv:"N[:COMPILE_US]"
        ~doc:
          "Enable the compiled-mapping LRU cache: $(docv) entries keyed by \
           accelerator shape signature; a miss pays COMPILE_US microseconds \
           (default 500) of mapping-compilation latency amortized across \
           its batch, a hit pays nothing")

let predict_arg =
  Arg.(
    value & flag
    & info [ "predict" ]
        ~doc:
          "Replace the reactive autoscaler control law with the predictive \
           one: a Holt-Winters forecast of the admitted arrival rate sizes \
           the replica group ahead of recurring load swings.  Requires \
           $(b,--autoscale)")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Drive the run from a recorded #mlv-trace file instead of \
           generating arrivals; replay is bit-exact (arrival instants are \
           stored as hex floats)")

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"FILE"
        ~doc:
          "Write the workload this configuration generates as a #mlv-trace \
           file to $(docv), then run by replaying it (so the run and the \
           recording cannot disagree)")

let bitstream_cache_arg =
  Arg.(
    value & opt int 0
    & info [ "bitstream-cache" ] ~docv:"N"
        ~doc:
          "Install a bitstream staging cache of capacity $(docv) on the \
           runtime: repeat deployments of a cached (accelerator, partition, \
           device-kind) bitstream pay a tenth of the reconfiguration cost.  \
           0 (the default) disables caching")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the observability registry (counters, histograms, spans) as \
           JSON to $(docv) after the run")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable per-task lifecycle tracing and write a \
           Chrome-trace-event JSON to $(docv) after the run (load it \
           in ui.perfetto.dev or chrome://tracing)")

let scrape_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "scrape-interval" ] ~docv:"US"
        ~doc:
          "Enable streaming telemetry: every $(docv) microseconds of \
           simulated time a scrape tick samples throughput, queue depth, \
           node health and windowed p99 sojourn into time-series rings \
           and evaluates any $(b,--alerts) rules.  Unset (the default), \
           no ticks are scheduled and results are bit-identical to \
           telemetry-free builds")

let alerts_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "alerts" ] ~docv:"RULES"
        ~doc:
          "Alert rules evaluated at each scrape tick, ';'-separated: \
           'NAME gt|lt SERIES THRESHOLD WINDOW FOR COOLDOWN' or 'NAME \
           burn BAD TOTAL OBJECTIVE FACTOR LONG SHORT FOR COOLDOWN' \
           (e.g. 'outage gt sysim.nodes_down 0 1 1 0').  Implies \
           telemetry at the default cadence when $(b,--scrape-interval) \
           is unset")

let series_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "series-out" ] ~docv:"FILE"
        ~doc:
          "Write every telemetry time-series (ring contents and totals) \
           as JSON to $(docv) after the run")

let prom_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom-out" ] ~docv:"FILE"
        ~doc:
          "Write a Prometheus/OpenMetrics text exposition (counters, \
           histogram summaries, latest series values) to $(docv) after \
           the run")

let () =
  let info =
    Cmd.info "mlvsim" ~version:"1.0.0"
      ~doc:"Workload simulation on the virtualized heterogeneous FPGA cluster"
  in
  let term =
    Term.(
      const run $ set_arg $ policy_arg $ tasks_arg $ seed_arg $ interarrival_arg
      $ repeats_arg $ compare_arg $ fault_plan_arg $ max_retries_arg
      $ burst_arg $ diurnal_arg $ batch_arg $ autoscale_arg $ slo_arg
      $ tenants_arg $ preempt_arg $ defrag_arg $ sessions_arg
      $ mapping_cache_arg $ predict_arg $ replay_arg $ record_arg
      $ bitstream_cache_arg $ metrics_out_arg $ trace_out_arg $ scrape_interval_arg $ alerts_arg
      $ series_out_arg $ prom_out_arg)
  in
  exit (Cmd.eval' (Cmd.v info term))
