module Obs = Mlv_obs.Obs
module Series = Mlv_obs.Series
module Alert = Mlv_obs.Alert
module Cluster = Mlv_cluster.Cluster
module Network = Mlv_cluster.Network
module Sim = Mlv_cluster.Sim
module Fault_plan = Mlv_cluster.Fault_plan
module Slo = Mlv_sched.Slo
module Router = Mlv_sched.Router
module Autoscaler = Mlv_sched.Autoscaler
module Session = Mlv_serve.Session
module Mapcache = Mlv_serve.Mapcache

type t = {
  runtime : Runtime.t;
  table : (int, Runtime.deployment) Hashtbl.t;
  mutable next_id : int;
  (* Serving-layer state: deployments double as router replicas
     (keyed by accel, weighted by tile count); the gate and the
     autoscaler evaluation share the cluster's sim clock. *)
  router : Router.t;
  mutable slo_specs : Slo.class_spec list;
  mutable gate : Slo.t;
  mutable autoscale : bool;
  autoscale_cfg : Autoscaler.config;
  alert_engine : Alert.t;
      (* rules added via [alert add], evaluated on demand by [alerts
         eval] against the live series registry *)
  sessions : Session.t;
      (* front-door client sessions, on the cluster's sim clock *)
  mutable mapcache : (string, string) Mapcache.t option;
      (* compiled-mapping LRU keyed by shape signature (value: the
         accel that filled the entry); None until [mapcache <cap>] *)
}

let create runtime =
  {
    runtime;
    table = Hashtbl.create 16;
    next_id = 0;
    router = Router.create ();
    slo_specs = [];
    gate = Slo.create [];
    autoscale = false;
    autoscale_cfg = Autoscaler.default;
    alert_engine = Alert.create [];
    sessions = Session.create (Session.config ());
    mapcache = None;
  }

let live_handles t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.table [] |> List.sort compare

let help =
  "ok commands: deploy <accel> | undeploy <id> | status | nodes | list | deployments | \
   rebalance | fail <node> | restore <node> | migrate <id> [force] | inject <plan> | \
   faults | index | slo [add <class> <prio> <deadline_us> <rate/s> <burst> | \
   check <class> | shed <prio|off>] | router [dispatch <accel> | done <id>] | \
   autoscale [on|off | eval <accel>] | sessions | \
   session [touch <key> | expire] | \
   mapcache [<capacity> | off | lookup <accel>] | \
   metrics [json] | trace <substring> | \
   timeline [on|off] | top | series [<name>] | alerts [eval] | \
   alert add <rule-spec> | counters reset | help"

let now_us t = Sim.now (Runtime.cluster t.runtime).Cluster.sim

let router_forget t id =
  match Hashtbl.find_opt t.table id with
  | Some d -> Router.remove_replica t.router ~key:d.Runtime.accel ~replica_id:id
  | None -> ()

let do_deploy t accel =
  match Runtime.deploy t.runtime ~accel with
  | Error e -> "error " ^ e
  | Ok d ->
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    Hashtbl.replace t.table id d;
    Router.add_replica t.router ~key:accel ~replica_id:id
      ~weight:(float_of_int (max 1 (Runtime.tiles_deployed d)));
    let nodes =
      String.concat "," (List.map string_of_int (Runtime.nodes_used d))
    in
    let vbs =
      List.fold_left
        (fun acc (p : Runtime.placement) ->
          acc + p.Runtime.bitstream.Mlv_vital.Bitstream.vbs)
        0 d.Runtime.placements
    in
    Printf.sprintf "ok id=%d nodes=%s vbs=%d tiles=%d" id nodes vbs
      (Runtime.tiles_deployed d)

let do_undeploy t id_str =
  match int_of_string_opt id_str with
  | None -> Printf.sprintf "error bad deployment id %S" id_str
  | Some id -> (
    match Hashtbl.find_opt t.table id with
    | None -> Printf.sprintf "error unknown deployment %d" id
    | Some d ->
      router_forget t id;
      Runtime.undeploy t.runtime d;
      Hashtbl.remove t.table id;
      "ok")

let do_status t =
  let s = Runtime.stats t.runtime in
  Printf.sprintf "ok live=%d vbs=%d/%d util=%.1f%%" s.Runtime.live s.Runtime.vbs_used
    s.Runtime.vbs_total
    (Runtime.cluster_utilization t.runtime *. 100.0)

let do_nodes t =
  let s = Runtime.stats t.runtime in
  "ok "
  ^ String.concat " "
      (List.map (fun (i, used, total) -> Printf.sprintf "%d:%d/%d" i used total) s.Runtime.per_node)

let do_deployments t =
  let entries =
    live_handles t
    |> List.map (fun id ->
           let d = Hashtbl.find t.table id in
           Printf.sprintf "%d:%s:%s" id d.Runtime.accel
             (String.concat "," (List.map string_of_int (Runtime.nodes_used d))))
  in
  "ok " ^ String.concat " " entries

let do_metrics () =
  let counters = Obs.counters () in
  let histograms = Obs.histograms () in
  Printf.sprintf "ok counters=%d histograms=%d spans=%d\n%s" (List.length counters)
    (List.length histograms)
    (List.length (Obs.spans ()))
    (Obs.render ())

let do_trace sub =
  let matched = Obs.spans_matching sub in
  let lines =
    List.map
      (fun (r : Obs.span_record) ->
        Printf.sprintf "  %s%s wall=%.1fus sim=%.1fus"
          (String.make (2 * r.depth) ' ')
          r.name r.wall_us r.sim_us)
      matched
  in
  String.concat "\n" (Printf.sprintf "ok matched=%d" (List.length matched) :: lines)

(* Newest ~40 lifecycle-trace events, with the ring's own accounting
   in the header so a truncated view is visible as such. *)
let timeline_shown = 40

let do_timeline () =
  let events = Obs.Trace.events () in
  let n = List.length events in
  let shown =
    if n <= timeline_shown then events
    else List.filteri (fun i _ -> i >= n - timeline_shown) events
  in
  let line (e : Obs.Trace.event) =
    let opt name = function
      | None -> ""
      | Some v -> Printf.sprintf " %s=%d" name v
    in
    Printf.sprintf "  %.1fus %s%s%s%s%s%s" e.Obs.Trace.at_sim_us
      (Obs.Trace.phase_name e.Obs.Trace.phase)
      (opt "task" e.Obs.Trace.task)
      (opt "node" e.Obs.Trace.node)
      (opt "depl" e.Obs.Trace.deployment)
      (if e.Obs.Trace.retries > 0 then
         Printf.sprintf " retries=%d" e.Obs.Trace.retries
       else "")
      (if e.Obs.Trace.label = "" then "" else " " ^ e.Obs.Trace.label)
  in
  String.concat "\n"
    (Printf.sprintf "ok events=%d shown=%d dropped=%d" (Obs.Trace.recorded ())
       (List.length shown) (Obs.Trace.dropped ())
    :: List.map line shown)

(* Per-node occupancy + completions and per-kind latency, read from
   the labeled sysim series (empty outside a sysim run). *)
let do_top t =
  let s = Runtime.stats t.runtime in
  let completed = Obs.counters_with_base "sysim.tasks.completed" in
  let completed_on n =
    let target = [ ("node", string_of_int n) ] in
    List.fold_left
      (fun acc (_, labels, v) -> if labels = target then acc + v else acc)
      0 completed
  in
  let node_lines =
    List.map
      (fun (i, used, total) ->
        Printf.sprintf "  node %d: vbs=%d/%d util=%.1f%% completed=%d" i used
          total
          (if total > 0 then 100.0 *. float_of_int used /. float_of_int total
           else 0.0)
          (completed_on i))
      s.Runtime.per_node
  in
  let kinds =
    Obs.histograms_with_base "sysim.task_sojourn_us"
    |> List.filter_map (fun (_, labels, h) ->
           match labels with [ ("kind", k) ] -> Some (k, h) | _ -> None)
  in
  let kind_lines =
    List.map
      (fun (k, h) ->
        Printf.sprintf "  kind %s: tasks=%d mean=%.1fus p95=%.1fus" k
          (Obs.Histogram.count h) (Obs.Histogram.mean h)
          (Obs.Histogram.percentile h 95.0))
      kinds
  in
  String.concat "\n"
    (Printf.sprintf "ok nodes=%d kinds=%d"
       (List.length s.Runtime.per_node)
       (List.length kinds)
    :: (node_lines @ kind_lines))

(* Fail a node with automatic failover, dropping the ids of
   deployments that could not be re-placed (shared by [fail] and
   [inject]'s crash events). *)
let apply_fail t n =
  let f = Runtime.fail_node t.runtime n in
  let lost_ids =
    Hashtbl.fold
      (fun id d acc -> if List.memq d f.Runtime.lost then id :: acc else acc)
      t.table []
  in
  List.iter
    (fun id ->
      router_forget t id;
      Hashtbl.remove t.table id)
    lost_ids;
  (f.Runtime.recovered, List.length f.Runtime.lost)

let do_migrate t ?(force = false) id_str =
  match int_of_string_opt id_str with
  | None -> Printf.sprintf "error bad deployment id %S" id_str
  | Some id -> (
    match Hashtbl.find_opt t.table id with
    | None -> Printf.sprintf "error unknown deployment %d" id
    | Some d -> (
      match Runtime.migrate ~force t.runtime d with
      | Ok moved ->
        Printf.sprintf "ok moved=%d nodes=%s" moved
          (String.concat "," (List.map string_of_int (Runtime.nodes_used d)))
      | Error e -> "error " ^ e))

(* One unbudgeted compaction pass: every partially-occupied healthy
   node is a source and every live deployment may move once.  A move
   that cannot be placed rolls back on its own; the others stand.  The
   reply carries both counts, so "nothing needed to move" (attempted=0)
   reads apart from "every move rolled back" (moved=0, attempted>0). *)
let do_rebalance t =
  let live = List.length (Runtime.deployments t.runtime) in
  let cfg =
    Defrag.config ~frag_threshold:0.0 ~min_node_fill:1.0 ~max_moves:(max 1 live) ()
  in
  let pass = Defrag.run_pass cfg t.runtime in
  Printf.sprintf "ok moved=%d attempted=%d" pass.Defrag.moved pass.Defrag.attempted

(* ------------------------------------------------------------------ *)
(* Serving layer: admission gate, router, autoscaler evaluation        *)
(* ------------------------------------------------------------------ *)

let do_slo_show t =
  let class_line (c : Slo.class_spec) =
    Printf.sprintf "  %s prio=%d deadline=%.0fus rate=%.0f/s burst=%d \
                    admitted=%d shed=%d"
      c.Slo.class_name c.Slo.priority c.Slo.deadline_us c.Slo.rate_per_s
      c.Slo.burst
      (Slo.admitted_of t.gate c.Slo.class_name)
      (Slo.shed_of t.gate c.Slo.class_name)
  in
  let shed_below =
    if Slo.shed_below t.gate = min_int then "off"
    else string_of_int (Slo.shed_below t.gate)
  in
  String.concat "\n"
    (Printf.sprintf "ok classes=%d shed_below=%s admitted=%d shed=%d"
       (List.length t.slo_specs) shed_below (Slo.admitted t.gate)
       (Slo.shed t.gate)
    :: List.map class_line (Slo.classes t.gate))

(* Rebuilding the gate resets its buckets and counters — the shell
   trades history for a mutable class list. *)
let do_slo_add t name prio deadline rate burst =
  match
    ( int_of_string_opt prio,
      float_of_string_opt deadline,
      float_of_string_opt rate,
      int_of_string_opt burst )
  with
  | Some priority, Some deadline_us, Some rate_per_s, Some burst -> (
    try
      let spec =
        Slo.class_spec ~priority ~deadline_us ~rate_per_s ~burst name
      in
      let specs =
        List.filter (fun (c : Slo.class_spec) -> c.Slo.class_name <> name)
          t.slo_specs
        @ [ spec ]
      in
      t.slo_specs <- specs;
      t.gate <- Slo.create specs;
      Printf.sprintf "ok classes=%d (gate rebuilt, counters reset)"
        (List.length specs)
    with Invalid_argument e -> "error " ^ e)
  | _ -> "error usage: slo add <class> <prio> <deadline_us> <rate/s> <burst>"

let do_slo_check t name =
  let verdict =
    match Slo.admit t.gate ~class_name:name ~now_us:(now_us t) with
    | Slo.Admitted -> "admitted"
    | Slo.Shed_rate -> "shed-rate"
    | Slo.Shed_priority -> "shed-priority"
    | Slo.Shed_tenant -> "shed-tenant"
  in
  Printf.sprintf "ok class=%s verdict=%s now=%.1f" name verdict (now_us t)

let do_router_show t =
  let lines =
    List.map
      (fun key ->
        let reps =
          Router.replicas t.router ~key
          |> List.map (fun id ->
                 Printf.sprintf "%d:%d" id
                   (Router.outstanding t.router ~key ~replica_id:id))
        in
        Printf.sprintf "  %s replicas=%s" key (String.concat "," reps))
      (Router.keys t.router)
  in
  String.concat "\n"
    (Printf.sprintf "ok groups=%d outstanding=%d dispatched=%d"
       (List.length (Router.keys t.router))
       (Router.total_outstanding t.router)
       (Router.dispatched t.router)
    :: lines)

let do_router_dispatch t accel =
  match Router.pick t.router ~key:accel with
  | None -> Printf.sprintf "error no replicas for %S (deploy one first)" accel
  | Some id ->
    Router.begin_work t.router ~key:accel ~replica_id:id 1;
    Printf.sprintf "ok id=%d outstanding=%d" id
      (Router.outstanding t.router ~key:accel ~replica_id:id)

let do_router_done t id_str =
  match int_of_string_opt id_str with
  | None -> Printf.sprintf "error bad deployment id %S" id_str
  | Some id -> (
    match Hashtbl.find_opt t.table id with
    | None -> Printf.sprintf "error unknown deployment %d" id
    | Some d ->
      Router.end_work t.router ~key:d.Runtime.accel ~replica_id:id 1;
      Printf.sprintf "ok id=%d outstanding=%d" id
        (Router.outstanding t.router ~key:d.Runtime.accel ~replica_id:id))

(* One offline control-loop step for a group: replicas are this
   accel's deployments, backlog its outstanding routed requests, idle
   its zero-outstanding replicas.  Reports the decision; actuation
   stays with the operator ([deploy]/[undeploy]). *)
let do_autoscale_eval t accel =
  if not t.autoscale then "error autoscale is off (autoscale on)"
  else begin
    let replica_ids = Router.replicas t.router ~key:accel in
    let replicas = List.length replica_ids in
    let backlog =
      List.fold_left
        (fun acc id -> acc + Router.outstanding t.router ~key:accel ~replica_id:id)
        0 replica_ids
    in
    let idle =
      List.length
        (List.filter
           (fun id -> Router.outstanding t.router ~key:accel ~replica_id:id = 0)
           replica_ids)
    in
    let tracker = Autoscaler.tracker ~name:("hyp." ^ accel) in
    let decision =
      Autoscaler.decide t.autoscale_cfg tracker ~now_us:(now_us t) ~backlog
        ~replicas ~idle ~deadline_us:(Slo.min_deadline_us t.gate)
    in
    Printf.sprintf "ok accel=%s decision=%s backlog=%d replicas=%d idle=%d"
      accel
      (Autoscaler.decision_to_string decision)
      backlog replicas idle
  end

let do_autoscale_show t =
  let c = t.autoscale_cfg in
  Printf.sprintf
    "ok autoscale=%s interval=%.0fus high=%.1f low=%.1f cooldown=%.0fus \
     idle_timeout=%.0fus replicas=%d..%d"
    (if t.autoscale then "on" else "off")
    c.Autoscaler.interval_us c.Autoscaler.high_backlog_per_replica
    c.Autoscaler.low_backlog_per_replica c.Autoscaler.cooldown_us
    c.Autoscaler.idle_timeout_us c.Autoscaler.min_replicas
    c.Autoscaler.max_replicas

(* ------------------------------------------------------------------ *)
(* Telemetry: windowed series and alert rules                          *)
(* ------------------------------------------------------------------ *)

let do_series_list () =
  Printf.sprintf "ok series=%d\n%s"
    (List.length (Series.all ()))
    (Series.render ())

let do_series_show name =
  match Series.find name with
  | None -> Printf.sprintf "error unknown series %S (try series)" name
  | Some s ->
    let pts = Series.points s in
    String.concat "\n"
      (Printf.sprintf "ok kind=%s interval=%gus live=%d total=%d"
         (Series.kind_name (Series.kind s))
         (Series.interval_us s) (List.length pts) (Series.total_count s)
      :: List.map
           (fun (t0, n, v) -> Printf.sprintf "  %.1fus n=%d v=%.4f" t0 n v)
           pts)

let do_alerts t =
  Printf.sprintf "ok rules=%d firing=%d\n%s"
    (List.length (Alert.rules t.alert_engine))
    (List.length (Alert.firing t.alert_engine))
    (Alert.render t.alert_engine)

let do_alerts_eval t =
  Alert.eval t.alert_engine ~now_us:(now_us t);
  Printf.sprintf "ok evaluated rules=%d firing=%d now=%.1f"
    (List.length (Alert.rules t.alert_engine))
    (List.length (Alert.firing t.alert_engine))
    (now_us t)

let do_alert_add t spec =
  match Alert.of_string spec with
  | Error e -> "error " ^ e
  | Ok rules -> (
    try
      List.iter (Alert.add_rule t.alert_engine) rules;
      Printf.sprintf "ok rules=%d" (List.length (Alert.rules t.alert_engine))
    with Invalid_argument e -> "error " ^ e)

(* Run a fault plan to completion on the cluster's simulator: crashes
   fail over (as the [fail] command does), restores return capacity,
   degrades program the ring delay. *)
let do_inject t plan_str =
  match Fault_plan.of_string plan_str with
  | Error e -> "error " ^ e
  | Ok plan -> (
    let cluster = Runtime.cluster t.runtime in
    match Fault_plan.validate plan ~nodes:(Cluster.node_count cluster) with
    | Error e -> "error " ^ e
    | Ok () ->
      let recovered = ref 0 in
      let lost = ref 0 in
      Fault_plan.schedule plan cluster.Cluster.sim
        ~on_crash:(fun n ->
          let r, l = apply_fail t n in
          recovered := !recovered + r;
          lost := !lost + l)
        ~on_restore:(fun n -> Runtime.restore_node t.runtime n)
        ~on_degrade:(fun us ->
          Network.set_added_latency_us cluster.Cluster.network us);
      Sim.run cluster.Cluster.sim;
      Printf.sprintf "ok events=%d recovered=%d lost=%d now=%.1f"
        (Fault_plan.length plan) !recovered !lost
        (Sim.now cluster.Cluster.sim))

let do_faults t =
  let cluster = Runtime.cluster t.runtime in
  let failed =
    match Runtime.failed_nodes t.runtime with
    | [] -> "-"
    | ns -> String.concat "," (List.map string_of_int ns)
  in
  let degraded_ids =
    Hashtbl.fold
      (fun id d acc ->
        if Runtime.deployment_health t.runtime d <> [] then id :: acc else acc)
      t.table []
    |> List.sort compare
  in
  let degraded =
    match degraded_ids with
    | [] -> "-"
    | ids -> String.concat "," (List.map string_of_int ids)
  in
  Printf.sprintf "ok failed=%s degraded=%s added_latency_us=%g" failed degraded
    (Network.added_latency_us cluster.Cluster.network)

(* ------------------------------------------------------------------ *)
(* Front door: client sessions and the compiled-mapping cache          *)
(* ------------------------------------------------------------------ *)

let do_sessions t =
  let s = t.sessions in
  let lines =
    List.filter_map
      (fun k ->
        Option.map
          (fun sess ->
            Printf.sprintf "%s last_active=%.0f outstanding=%d" k
              (Session.last_active_us sess)
              (Session.outstanding sess))
          (Session.find s k))
      (Session.keys s)
  in
  Printf.sprintf "ok sessions=%d opened=%d expired=%d sticky=%d/%d held=%d%s"
    (Session.active s) (Session.opened s) (Session.expired s)
    (Session.sticky_hits s) (Session.sticky_misses s) (Session.held s)
    (match lines with [] -> "" | _ -> "\n" ^ String.concat "\n" lines)

let do_session_touch t key =
  let sess = Session.touch t.sessions ~now_us:(now_us t) key in
  Printf.sprintf "ok key=%s outstanding=%d last_active=%.0f" key
    (Session.outstanding sess)
    (Session.last_active_us sess)

let do_session_expire t =
  let reaped = Session.expire t.sessions ~now_us:(now_us t) in
  Printf.sprintf "ok expired=%d%s" (List.length reaped)
    (match reaped with [] -> "" | ks -> " " ^ String.concat "," ks)

let do_mapcache_show t =
  match t.mapcache with
  | None -> "ok mapcache=off"
  | Some mc ->
    Printf.sprintf
      "ok mapcache=on capacity=%d entries=%d hits=%d misses=%d evictions=%d \
       hit_rate=%.2f%s"
      (Mapcache.capacity mc) (Mapcache.length mc) (Mapcache.hits mc)
      (Mapcache.misses mc) (Mapcache.evictions mc) (Mapcache.hit_rate mc)
      (match Mapcache.keys mc with
      | [] -> ""
      | ks -> "\n" ^ String.concat "\n" ks)

let do_mapcache_install t cap_str =
  match int_of_string_opt cap_str with
  | None -> Printf.sprintf "error bad capacity %S (try mapcache <capacity>)" cap_str
  | Some c when c < 1 -> "error capacity must be >= 1"
  | Some c ->
    t.mapcache <- Some (Mapcache.create ~capacity:c ());
    Printf.sprintf "ok mapcache=on capacity=%d" c

let do_mapcache_lookup t accel =
  match t.mapcache with
  | None -> "error mapcache is off (try mapcache <capacity>)"
  | Some mc -> (
    match Mapdb.find (Runtime.registry t.runtime) accel with
    | None -> Printf.sprintf "error unknown accelerator %S" accel
    | Some plan -> (
      let key = Mapdb.shape_signature plan in
      match Mapcache.find mc key with
      | Some owner ->
        Printf.sprintf "ok hit accel=%s compiled_as=%s key=%s" accel owner key
      | None ->
        Mapcache.put mc key accel;
        Printf.sprintf "ok miss accel=%s key=%s" accel key))

let command t line =
  let words =
    String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
  in
  match words with
  | [ "deploy"; accel ] -> do_deploy t accel
  | [ "undeploy"; id ] -> do_undeploy t id
  | [ "status" ] -> do_status t
  | [ "nodes" ] -> do_nodes t
  | [ "list" ] -> "ok " ^ String.concat " " (Mapdb.names (Runtime.registry t.runtime))
  | [ "deployments" ] -> do_deployments t
  | [ "rebalance" ] -> do_rebalance t
  | [ "fail"; node ] -> (
    match int_of_string_opt node with
    | None -> Printf.sprintf "error bad node %S" node
    | Some n -> (
      (* deployments that could not be re-placed lose their ids *)
      match apply_fail t n with
      | recovered, lost -> Printf.sprintf "ok recovered=%d lost=%d" recovered lost
      | exception Invalid_argument e -> "error " ^ e))
  | [ "migrate"; id ] -> do_migrate t id
  | [ "migrate"; id; "force" ] -> do_migrate t ~force:true id
  | [ "slo" ] -> do_slo_show t
  | [ "slo"; "add"; name; prio; deadline; rate; burst ] ->
    do_slo_add t name prio deadline rate burst
  | [ "slo"; "check"; name ] -> do_slo_check t name
  | [ "slo"; "shed"; "off" ] ->
    Slo.set_shed_below t.gate min_int;
    "ok shed_below=off"
  | [ "slo"; "shed"; prio ] -> (
    match int_of_string_opt prio with
    | None -> Printf.sprintf "error bad priority %S" prio
    | Some p ->
      Slo.set_shed_below t.gate p;
      Printf.sprintf "ok shed_below=%d" p)
  | "slo" :: _ ->
    "error usage: slo [add <class> <prio> <deadline_us> <rate/s> <burst> | \
     check <class> | shed <prio|off>]"
  | [ "router" ] -> do_router_show t
  | [ "router"; "dispatch"; accel ] -> do_router_dispatch t accel
  | [ "router"; "done"; id ] -> do_router_done t id
  | "router" :: _ -> "error usage: router [dispatch <accel> | done <id>]"
  | [ "autoscale" ] -> do_autoscale_show t
  | [ "autoscale"; "on" ] ->
    t.autoscale <- true;
    "ok autoscale=on"
  | [ "autoscale"; "off" ] ->
    t.autoscale <- false;
    "ok autoscale=off"
  | [ "autoscale"; "eval"; accel ] -> do_autoscale_eval t accel
  | "autoscale" :: _ -> "error usage: autoscale [on|off | eval <accel>]"
  | [ "sessions" ] -> do_sessions t
  | [ "session"; ("open" | "touch"); key ] -> do_session_touch t key
  | [ "session"; "expire" ] -> do_session_expire t
  | "session" :: _ -> "error usage: session [touch <key> | expire]"
  | [ "mapcache" ] -> do_mapcache_show t
  | [ "mapcache"; "off" ] ->
    t.mapcache <- None;
    "ok mapcache=off"
  | [ "mapcache"; "lookup"; accel ] -> do_mapcache_lookup t accel
  | [ "mapcache"; cap ] -> do_mapcache_install t cap
  | "mapcache" :: _ -> "error usage: mapcache [<capacity> | off | lookup <accel>]"
  | [ "inject"; plan ] -> do_inject t plan
  | "inject" :: _ -> "error usage: inject <plan> (e.g. crash@100:1,restore@500:1)"
  | [ "faults" ] -> do_faults t
  | [ "restore"; node ] -> (
    match int_of_string_opt node with
    | None -> Printf.sprintf "error bad node %S" node
    | Some n ->
      Runtime.restore_node t.runtime n;
      "ok")
  | [ "index" ] ->
    Printf.sprintf "ok consistent=%b" (Runtime.index_consistent t.runtime)
  | [ "metrics" ] -> do_metrics ()
  | [ "metrics"; "json" ] -> "ok " ^ Obs.json_string ()
  | [ "trace"; sub ] -> do_trace sub
  | [ "trace" ] -> "error usage: trace <substring>"
  | [ "timeline" ] -> do_timeline ()
  | [ "timeline"; "on" ] ->
    Obs.Trace.set_enabled true;
    "ok tracing=on"
  | [ "timeline"; "off" ] ->
    Obs.Trace.set_enabled false;
    "ok tracing=off"
  | "timeline" :: _ -> "error usage: timeline [on|off]"
  | [ "top" ] -> do_top t
  | [ "series" ] -> do_series_list ()
  | [ "series"; name ] -> do_series_show name
  | "series" :: _ -> "error usage: series [<name>]"
  | [ "alerts" ] -> do_alerts t
  | [ "alerts"; "eval" ] -> do_alerts_eval t
  | "alerts" :: _ -> "error usage: alerts [eval]"
  | "alert" :: "add" :: (_ :: _ as spec) -> do_alert_add t (String.concat " " spec)
  | "alert" :: _ -> "error usage: alert add <rule-spec>"
  | [ "counters"; "reset" ] ->
    Obs.reset ();
    "ok"
  | "counters" :: _ -> "error usage: counters reset"
  | [ "help" ] -> help
  | [] -> "error empty command"
  | cmd :: _ -> Printf.sprintf "error unknown command %S (try help)" cmd

(* Spans and lifecycle events a command emits read the cluster's
   clock, and only while the command runs. *)
let handle t line = Obs.with_sim_clock (fun () -> now_us t) (fun () -> command t line)
