(* Tests for the streaming-telemetry layer: windowed time-series
   rings (Obs.Series), the alert rule engine (Obs.Alert) and the
   Prometheus text exposition — plus the differential property that
   windowed aggregates over a full run agree with the cumulative Obs
   histograms fed the same stream, and the telemetry scenarios of
   EXPERIMENTS.md run through the simulator: bit-identical results
   with telemetry off and on, no false positives, outage detection
   against injected ground truth, and a firing burn-rate rule. *)

module Obs = Mlv_obs.Obs
module Series = Mlv_obs.Series
module Alert = Mlv_obs.Alert
module Prometheus = Mlv_obs.Prometheus
module Stats = Mlv_util.Stats
module Sysim = Mlv_sysim.Sysim
module Runtime = Mlv_core.Runtime
module Fault_plan = Mlv_cluster.Fault_plan
module Genset = Mlv_workload.Genset

(* Every test starts from an empty series registry: registrations from
   earlier tests would otherwise collide on parameters. *)
let fresh () =
  Series.remove_all ();
  Obs.reset ()

(* ---------------- series semantics ---------------- *)

let test_rate_windows () =
  fresh ();
  let s = Series.create ~buckets:8 ~kind:Series.Rate ~interval_us:1_000.0 "r" in
  (* epochs 0, 0, 1, 3 *)
  Series.observe s ~now_us:100.0 2.0;
  Series.observe s ~now_us:900.0 3.0;
  Series.observe s ~now_us:1_500.0 5.0;
  Series.observe s ~now_us:3_200.0 7.0;
  Alcotest.(check int) "window 1 count" 1
    (Series.window_count s ~now_us:3_200.0 ~buckets:1);
  Alcotest.(check (float 1e-9)) "window 1 sum" 7.0
    (Series.window_sum s ~now_us:3_200.0 ~buckets:1);
  (* buckets 2 = epochs 2 (empty) and 3 *)
  Alcotest.(check (float 1e-9)) "window 2 sum" 7.0
    (Series.window_sum s ~now_us:3_200.0 ~buckets:2);
  Alcotest.(check (float 1e-9)) "window 4 sum" 17.0
    (Series.window_sum s ~now_us:3_200.0 ~buckets:4);
  (* rate = sum / window span: 17 over 4ms *)
  Alcotest.(check (float 1e-6)) "rate per s" (17.0 /. 0.004)
    (Series.window_rate_per_s s ~now_us:3_200.0 ~buckets:4);
  Alcotest.(check int) "total count" 4 (Series.total_count s);
  Alcotest.(check (float 1e-9)) "total sum" 17.0 (Series.total_sum s)

let test_gauge_last_value_and_gaps () =
  fresh ();
  let s = Series.create ~buckets:4 ~kind:Series.Gauge ~interval_us:1_000.0 "g" in
  Series.observe s ~now_us:500.0 1.0;
  Series.observe s ~now_us:700.0 2.0;
  (* last value within the bucket wins *)
  Alcotest.(check (float 1e-9)) "last in bucket" 2.0
    (Series.window_value s ~now_us:900.0 ~buckets:1);
  (* two idle epochs later the gauge still reports the most recent
     non-empty bucket inside the window *)
  Alcotest.(check (float 1e-9)) "holds over idle buckets" 2.0
    (Series.window_value s ~now_us:2_900.0 ~buckets:4);
  (* a gap longer than the ring retires everything *)
  Series.advance s ~now_us:50_000.0;
  Alcotest.(check (float 1e-9)) "empty window reads 0" 0.0
    (Series.window_value s ~now_us:50_000.0 ~buckets:4)

let test_ring_eviction () =
  fresh ();
  let s = Series.create ~buckets:4 ~kind:Series.Rate ~interval_us:1_000.0 "e" in
  for k = 0 to 9 do
    Series.observe s ~now_us:(float_of_int k *. 1_000.0) 1.0
  done;
  (* only the last [cap] epochs are live, however wide the query *)
  Alcotest.(check int) "window capped at ring" 4
    (Series.window_count s ~now_us:9_000.0 ~buckets:100);
  Alcotest.(check int) "lifetime total survives" 10 (Series.total_count s);
  Alcotest.(check int) "live points" 4 (List.length (Series.points s))

let test_quantile_single_bucket_matches_p2 () =
  fresh ();
  let s =
    Series.create ~buckets:4 ~kind:(Series.Quantile 0.9) ~interval_us:1e9 "q"
  in
  let p2 = Stats.P2.create 0.9 in
  let x = ref 7 in
  for _ = 1 to 500 do
    x := (!x * 1103515245) + 12345;
    let v = float_of_int (abs !x mod 10_000) in
    Series.observe s ~now_us:10.0 v;
    Stats.P2.add p2 v
  done;
  (* one bucket holds the whole stream: the window aggregate IS the
     P² estimate, bit for bit *)
  Alcotest.(check (float 0.0)) "bit-identical to P2" (Stats.P2.quantile p2)
    (Series.window_value s ~now_us:10.0 ~buckets:1)

let test_series_validation () =
  fresh ();
  let s = Series.create ~buckets:4 ~kind:Series.Rate ~interval_us:1_000.0 "v" in
  Alcotest.check_raises "NaN sample"
    (Invalid_argument "Obs.Series.observe: sample must be finite") (fun () ->
      Series.observe s ~now_us:0.0 Float.nan);
  Alcotest.check_raises "negative time"
    (Invalid_argument "Obs.Series.observe: negative or NaN time") (fun () ->
      Series.observe s ~now_us:(-1.0) 1.0);
  (try
     ignore (Series.create ~buckets:4 ~kind:Series.Gauge ~interval_us:1_000.0 "v");
     Alcotest.fail "kind mismatch accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Series.create ~buckets:4 ~kind:Series.Rate ~interval_us:0.0 "v0");
     Alcotest.fail "zero interval accepted"
   with Invalid_argument _ -> ());
  (* same parameters return the same handle *)
  let s' = Series.create ~buckets:4 ~kind:Series.Rate ~interval_us:1_000.0 "v" in
  Alcotest.(check bool) "same handle" true (s == s')

(* ---------------- differential property ---------------- *)

(* Windowed aggregates over a ring wide enough to hold the whole run
   must agree with the cumulative histogram fed the same stream:
   count exactly, sum to float tolerance, and the single-bucket P²
   estimate bit-identically. *)
let test_series_agree_with_cumulative_histograms () =
  fresh ();
  let n = 5_000 in
  let interval_us = 1_000.0 in
  let rate =
    Series.create ~buckets:64 ~kind:Series.Rate ~interval_us "d.rate"
  in
  let q99 =
    Series.create ~buckets:2 ~kind:(Series.Quantile 0.99) ~interval_us:1e12
      "d.q99"
  in
  let h = Obs.Histogram.get "d.hist" in
  let p2 = Stats.P2.create 0.99 in
  let x = ref 1 in
  for k = 0 to n - 1 do
    x := (!x * 1103515245) + 12345;
    let v = float_of_int (abs !x mod 1_000_000) /. 37.0 in
    (* 5000 samples spread over 50 epochs of the rate ring *)
    let now_us = float_of_int k *. 10.0 in
    Series.observe rate ~now_us v;
    Series.observe q99 ~now_us v;
    Obs.Histogram.observe h v;
    Stats.P2.add p2 v
  done;
  let now_us = float_of_int (n - 1) *. 10.0 in
  Alcotest.(check int) "count agrees" (Obs.Histogram.count h)
    (Series.window_count rate ~now_us ~buckets:64);
  let hsum = Obs.Histogram.sum h in
  let wsum = Series.window_sum rate ~now_us ~buckets:64 in
  Alcotest.(check bool) "sum agrees to tolerance" true
    (Float.abs (hsum -. wsum) <= 1e-9 *. Float.max 1.0 (Float.abs hsum));
  Alcotest.(check (float 0.0)) "q99 bit-identical to P2 fed same stream"
    (Stats.P2.quantile p2)
    (Series.window_value q99 ~now_us ~buckets:1)

(* ---------------- alert state machine ---------------- *)

let gauge_rule ?(for_intervals = 2) ?(cooldown = 2) name =
  {
    Alert.name;
    condition =
      Alert.Threshold
        { series = "a.g"; window = 1; cmp = Alert.Gt; threshold = 10.0 };
    for_intervals;
    cooldown_intervals = cooldown;
  }

let drive s engine samples =
  List.map
    (fun (t, v) ->
      Series.observe s ~now_us:t v;
      Alert.eval engine ~now_us:t;
      ( Option.get (Alert.rule_state engine "r"),
        List.length (Alert.transitions engine) ))
    samples

let test_threshold_lifecycle () =
  fresh ();
  let s = Series.create ~buckets:8 ~kind:Series.Gauge ~interval_us:1_000.0 "a.g" in
  let e = Alert.create [ gauge_rule "r" ] in
  let states =
    drive s e
      [
        (0.0, 5.0);      (* below: inactive *)
        (1_000.0, 20.0); (* above: pending *)
        (2_000.0, 20.0); (* still above, streak 2 = for: firing *)
        (3_000.0, 20.0); (* stays firing, no new transition *)
        (4_000.0, 5.0);  (* below: resolved, cooldown starts *)
      ]
  in
  Alcotest.(check (list (pair string int)))
    "state walk"
    [
      ("inactive", 0);
      ("pending", 1);
      ("firing", 2);
      ("firing", 2);
      ("inactive", 3);
    ]
    (List.map (fun (st, n) -> (Alert.state_name st, n)) states);
  let events = List.map (fun tr -> tr.Alert.event) (Alert.transitions e) in
  Alcotest.(check (list string)) "event order"
    [ "pending"; "firing"; "resolved" ]
    (List.map Alert.event_name events);
  (* transition timestamps are the evaluation times *)
  Alcotest.(check (list (float 0.0))) "transition times"
    [ 1_000.0; 2_000.0; 4_000.0 ]
    (List.map (fun tr -> tr.Alert.at_us) (Alert.transitions e))

let test_cooldown_suppresses_rearm () =
  fresh ();
  let s = Series.create ~buckets:8 ~kind:Series.Gauge ~interval_us:1_000.0 "a.g" in
  let e = Alert.create [ gauge_rule ~for_intervals:1 ~cooldown:2 "r" ] in
  let walk =
    drive s e
      [
        (0.0, 20.0);     (* fires immediately (for=1) *)
        (1_000.0, 5.0);  (* resolves; cooldown = 2 *)
        (2_000.0, 20.0); (* above but cooling down: stays inactive *)
        (3_000.0, 20.0); (* still cooling down *)
        (4_000.0, 20.0); (* re-armed: fires again *)
      ]
  in
  Alcotest.(check (list string)) "cooldown walk"
    [ "firing"; "inactive"; "inactive"; "inactive"; "firing" ]
    (List.map (fun (st, _) -> Alert.state_name st) walk);
  Alcotest.(check (list string)) "events"
    [ "firing"; "resolved"; "firing" ]
    (List.map
       (fun tr -> Alert.event_name tr.Alert.event)
       (Alert.transitions e))

let test_pending_lapse_is_silent () =
  fresh ();
  let s = Series.create ~buckets:8 ~kind:Series.Gauge ~interval_us:1_000.0 "a.g" in
  let e = Alert.create [ gauge_rule ~for_intervals:3 ~cooldown:0 "r" ] in
  ignore
    (drive s e [ (0.0, 20.0); (1_000.0, 20.0); (2_000.0, 5.0); (3_000.0, 20.0) ]);
  (* pending at 0, streak broken at 2ms before for=3 was met: only the
     two Pend events, no Fire and no Resolve *)
  Alcotest.(check (list string)) "only pend events"
    [ "pending"; "pending" ]
    (List.map
       (fun tr -> Alert.event_name tr.Alert.event)
       (Alert.transitions e))

let test_missing_series_is_false () =
  fresh ();
  let e = Alert.create [ gauge_rule "r" ] in
  Alert.eval e ~now_us:0.0;
  Alert.eval e ~now_us:1_000.0;
  Alcotest.(check int) "no transitions" 0 (List.length (Alert.transitions e));
  Alcotest.(check string) "still inactive" "inactive"
    (Alert.state_name (Option.get (Alert.rule_state e "r")))

let test_burn_rate_rule () =
  fresh ();
  let iv = 1_000.0 in
  let bad = Series.create ~buckets:16 ~kind:Series.Rate ~interval_us:iv "b.bad" in
  let total =
    Series.create ~buckets:16 ~kind:Series.Rate ~interval_us:iv "b.total"
  in
  let rule =
    {
      Alert.name = "burn";
      condition =
        Alert.Burn_rate
          {
            bad = "b.bad";
            total = "b.total";
            objective = 0.9;  (* budget 0.1 *)
            factor = 2.0;
            long_window = 4;
            short_window = 2;
          };
      for_intervals = 1;
      cooldown_intervals = 0;
    }
  in
  let e = Alert.create [ rule ] in
  (* healthy epochs: 5% errors, burn 0.5 < 2 *)
  for k = 0 to 3 do
    let t = float_of_int k *. iv in
    Series.observe total ~now_us:t 100.0;
    Series.observe bad ~now_us:t 5.0;
    Alert.eval e ~now_us:t;
    Alcotest.(check string)
      (Printf.sprintf "healthy epoch %d" k)
      "inactive"
      (Alert.state_name (Option.get (Alert.rule_state e "burn")))
  done;
  (* outage: 40% errors, burn 4.0 on the short window — but the long
     window still averages below factor after one bad epoch *)
  Series.observe total ~now_us:(4.0 *. iv) 100.0;
  Series.observe bad ~now_us:(4.0 *. iv) 40.0;
  Alert.eval e ~now_us:(4.0 *. iv);
  Alcotest.(check string) "one bad epoch: long window holds it back"
    "inactive"
    (Alert.state_name (Option.get (Alert.rule_state e "burn")));
  (* a second bad epoch pushes the long window over: 5+5+40+40 / 400
     = 22.5% -> burn 2.25 >= 2, short window 40+40 / 200 -> burn 4 *)
  Series.observe total ~now_us:(5.0 *. iv) 100.0;
  Series.observe bad ~now_us:(5.0 *. iv) 40.0;
  Alert.eval e ~now_us:(5.0 *. iv);
  Alcotest.(check string) "sustained burn fires" "firing"
    (Alert.state_name (Option.get (Alert.rule_state e "burn")));
  (let tr = List.hd (List.rev (Alert.transitions e)) in
   Alcotest.(check (float 1e-9)) "reports long-window burn" 2.25
     tr.Alert.value);
  (* recovery: error rate back to zero drains the windows *)
  for k = 6 to 9 do
    let t = float_of_int k *. iv in
    Series.observe total ~now_us:t 100.0;
    Series.observe bad ~now_us:t 0.0;
    Alert.eval e ~now_us:t
  done;
  Alcotest.(check string) "recovered" "inactive"
    (Alert.state_name (Option.get (Alert.rule_state e "burn")));
  Alcotest.(check (list string)) "exactly one cycle"
    [ "firing"; "resolved" ]
    (List.map
       (fun tr -> Alert.event_name tr.Alert.event)
       (Alert.transitions e))

let test_empty_total_burns_zero () =
  fresh ();
  ignore (Series.create ~buckets:8 ~kind:Series.Rate ~interval_us:1e3 "z.bad");
  ignore (Series.create ~buckets:8 ~kind:Series.Rate ~interval_us:1e3 "z.total");
  let e =
    Alert.create
      [
        {
          Alert.name = "z";
          condition =
            Alert.Burn_rate
              {
                bad = "z.bad";
                total = "z.total";
                objective = 0.99;
                factor = 1.0;
                long_window = 2;
                short_window = 1;
              };
          for_intervals = 1;
          cooldown_intervals = 0;
        };
      ]
  in
  (* no traffic at all: burn is 0/0, defined as 0 — never fires *)
  Alert.eval e ~now_us:0.0;
  Alert.eval e ~now_us:1_000.0;
  Alcotest.(check int) "no transitions on empty series" 0
    (List.length (Alert.transitions e))

(* ---------------- rule grammar ---------------- *)

let test_grammar_roundtrip () =
  let specs =
    [
      "outage gt sysim.nodes_down 0 1 1 0";
      "slow lt sysim.goodput 5 6 3 12";
      "burny burn s.bad s.total 0.99 2 12 3 2 6";
    ]
  in
  List.iter
    (fun spec ->
      match Alert.of_string spec with
      | Error e -> Alcotest.fail (spec ^ ": " ^ e)
      | Ok [ r ] ->
        Alcotest.(check string) ("roundtrip " ^ spec) spec
          (Alert.rule_to_string r)
      | Ok _ -> Alcotest.fail (spec ^ ": expected one rule"))
    specs;
  (* multiple ;-separated clauses *)
  (match Alert.of_string (String.concat "; " specs) with
  | Ok rules -> Alcotest.(check int) "three rules" 3 (List.length rules)
  | Error e -> Alcotest.fail e);
  (* errors *)
  List.iter
    (fun spec ->
      match Alert.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ spec))
    [
      "name gt";  (* too few fields *)
      "name gt s notanumber 1 1 0";
      "name ge s 1 1 1 0";  (* unknown comparator *)
      "name burn b t 1.5 2 12 3 1 0";  (* objective outside (0,1) *)
      "name burn b t 0.9 2 3 12 1 0";  (* short window > long *)
      "name gt s 1 0 1 0";  (* window < 1 *)
      "bad;name gt s 1 1 1 0";  (* malformed clause *)
    ];
  (* duplicate names rejected at engine level *)
  try
    ignore (Alert.create [ gauge_rule "dup"; gauge_rule "dup" ]);
    Alcotest.fail "duplicate rule name accepted"
  with Invalid_argument _ -> ()

(* ---------------- determinism across Obs.reset ---------------- *)

let test_determinism_across_reset () =
  fresh ();
  let script () =
    let s =
      Series.create ~buckets:8 ~kind:Series.Gauge ~interval_us:1_000.0 "a.g"
    in
    let e = Alert.create [ gauge_rule "r" ] in
    List.iter
      (fun (t, v) ->
        Series.observe s ~now_us:t v;
        Alert.eval e ~now_us:t)
      [
        (0.0, 20.0);
        (1_000.0, 20.0);
        (2_000.0, 5.0);
        (3_000.0, 20.0);
        (4_000.0, 20.0);
      ];
    Alert.transitions e
  in
  let first = script () in
  (* Obs.reset clears series data through the reset hook; the same
     script on the surviving registrations must transition
     identically *)
  Obs.reset ();
  let second = script () in
  Alcotest.(check bool) "transition logs identical" true (first = second);
  Alcotest.(check bool) "something happened" true (List.length first > 0)

(* ---------------- prometheus exposition ---------------- *)

let test_prometheus_exposition () =
  fresh ();
  Obs.Counter.add (Obs.Counter.get "prom.requests") 41;
  Obs.Counter.incr
    (Obs.Counter.get_labeled "prom.requests" [ ("tenant", "gold") ]);
  let h = Obs.Histogram.get "prom.lat_us" in
  Obs.Histogram.observe h 100.0;
  let s =
    Series.create ~buckets:4 ~kind:Series.Rate ~interval_us:1_000.0
      "prom.rate"
  in
  Series.observe s ~now_us:500.0 3.0;
  let text = Prometheus.render () in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i =
      i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "plain counter" true (has "prom_requests 41");
  Alcotest.(check bool) "labeled counter" true
    (has {|prom_requests{tenant="gold"} 1|});
  (* the registry rejects reserved characters in label values, so the
     escaper is exercised directly *)
  Alcotest.(check string) "label escaping" {|a\"b\\c\nd|}
    (Prometheus.escape_label_value "a\"b\\c\nd");
  Alcotest.(check bool) "type header once" true
    (has "# TYPE prom_requests counter");
  Alcotest.(check bool) "histogram quantile" true
    (has {|prom_lat_us{quantile="0.99"}|});
  Alcotest.(check bool) "histogram count" true (has "prom_lat_us_count 1");
  Alcotest.(check bool) "series latest value" true (has "prom_rate:rate ");
  (* metric names are sanitized to the exposition charset *)
  Alcotest.(check string) "name sanitized" "x_y_z:9"
    (Prometheus.metric_name "x.y-z:9");
  Alcotest.(check string) "leading digit prefixed" "_9x"
    (Prometheus.metric_name "9x")

(* ---------------- telemetry on the simulator ---------------- *)

let registry = lazy (Sysim.build_registry ())

let run cfg =
  fresh ();
  Sysim.run ~registry:(Lazy.force registry) cfg

(* Everything but the wall clock and the telemetry-only fields must be
   bit-identical across a telemetry off/on pair. *)
let fingerprint (r : Sysim.result) =
  { r with Sysim.loop_wall_s = 0.0; scrapes = 0; alert_transitions = [] }

let scrape_interval_us = 1_000.0

let telemetry rules = Some { Sysim.scrape_interval_us; rules }

let outage_rules =
  match Alert.of_string "outage gt sysim.nodes_down 0 1 1 0" with
  | Ok rules -> rules
  | Error e -> failwith e

(* 240 open-loop tasks of set 3, seed 42. *)
let open_config ?faults telemetry =
  let base =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(2)
  in
  { base with Sysim.seed = 42; tasks = 240; faults; telemetry }

let events_of kind trs = List.filter (fun t -> t.Alert.event = kind) trs

let test_fault_free_no_false_positives () =
  let off = run (open_config None) in
  let on = run (open_config (telemetry outage_rules)) in
  Alcotest.(check bool) "telemetry leaves the result bit-identical" true
    (fingerprint off = fingerprint on);
  Alcotest.(check int) "zero alert transitions" 0 (List.length on.Sysim.alert_transitions);
  Alcotest.(check int) "scrapes" 10_753 on.Sysim.scrapes

(* Two well-separated outages of node 1: the crash and restore times
   are the ground truth the alert log is judged against. *)
let outage_windows = [ (8_000.0, 20_000.0); (40_000.0, 52_000.0) ]

let test_outage_detection () =
  let faults =
    Sysim.default_faults
      (Fault_plan.make
         (List.concat_map
            (fun (c, r) ->
              [
                { Fault_plan.at = c; action = Fault_plan.Crash 1 };
                { Fault_plan.at = r; action = Fault_plan.Restore 1 };
              ])
            outage_windows))
  in
  let off = run (open_config ~faults None) in
  let on = run (open_config ~faults (telemetry outage_rules)) in
  Alcotest.(check bool) "telemetry leaves the faulted result bit-identical" true
    (fingerprint off = fingerprint on);
  let trs = on.Sysim.alert_transitions in
  let fires = events_of Alert.Fire trs and resolves = events_of Alert.Resolve trs in
  Alcotest.(check int) "one fire per outage" 2 (List.length fires);
  Alcotest.(check int) "one resolve per outage" 2 (List.length resolves);
  List.iteri
    (fun i ((crash, restore), (f, r)) ->
      let detect = f.Alert.at_us -. crash and resolve = r.Alert.at_us -. restore in
      let within d = d >= 0.0 && d <= 2.0 *. scrape_interval_us in
      Alcotest.(check bool)
        (Printf.sprintf "outage %d: detected %.1f us after the crash, within 2 scrapes" i
           detect)
        true (within detect);
      Alcotest.(check bool)
        (Printf.sprintf "outage %d: resolved %.1f us after the restore, within 2 scrapes"
           i resolve)
        true (within resolve);
      (* the FIFO tie-break runs the fault before the scrape tick of
         the same microsecond, so detection is same-timestamp *)
      Alcotest.(check (pair (float 0.0) (float 0.0)))
        (Printf.sprintf "outage %d: same-timestamp detect/resolve" i)
        (0.0, 0.0) (detect, resolve))
    (List.combine outage_windows (List.combine fires resolves));
  let again = run (open_config ~faults (telemetry outage_rules)) in
  Alcotest.(check bool) "rerun: same result" true (fingerprint again = fingerprint on);
  Alcotest.(check bool) "rerun: same transition log" true
    (again.Sysim.alert_transitions = trs)

(* The bulk tenant's 20 us stream overloads the cluster; queueing
   pushes most gold sojourns past the SLO, burning the 90% objective
   at well over twice budget on both windows. *)
let burn_rules =
  [
    {
      Alert.name = "gold-slo-burn";
      condition =
        Alert.Burn_rate
          {
            bad = "sysim.tenant.slo_missed.rate{tenant=gold}";
            total = "sysim.tenant.completed.rate{tenant=gold}";
            objective = 0.9;
            factor = 2.0;
            long_window = 10;
            short_window = 3;
          };
      for_intervals = 2;
      cooldown_intervals = 5;
    };
  ]

let test_burn_rate_fires () =
  let cfg telemetry =
    let base =
      Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(2)
    in
    {
      base with
      Sysim.seed = 42;
      slo_multiplier = 4.0;
      tenants =
        [
          Genset.tenant_load ~tasks:120
            ~arrival:(Genset.Exponential { mean_us = 100.0 })
            "gold";
          Genset.tenant_load ~tasks:120 ~composition:Genset.table1.(1)
            ~arrival:(Genset.Exponential { mean_us = 20.0 })
            "bulk";
        ];
      serving = Some { Sysim.default_serving with Sysim.autoscale = None };
      telemetry;
    }
  in
  let off = run (cfg None) in
  let on = run (cfg (telemetry burn_rules)) in
  Alcotest.(check bool) "telemetry leaves the serving result bit-identical" true
    (fingerprint off = fingerprint on);
  let trs = on.Sysim.alert_transitions in
  let fires = List.length (events_of Alert.Fire trs) in
  Alcotest.(check bool) "the burn-rate rule fires" true (fires > 0);
  Alcotest.(check (pair int int)) "fires/scrapes" (21, 835) (fires, on.Sysim.scrapes);
  (* every gold completion in the windows misses its SLO, so each
     transition logs the largest burn rate, 1 / (1 - 0.9) = 10 *)
  List.iter
    (fun t ->
      Alcotest.(check string) "transition value" "10" (Printf.sprintf "%g" t.Alert.value))
    trs;
  (* the log and the alert.transitions counters (fresh at [run]) agree *)
  List.iter
    (fun event ->
      Alcotest.(check int)
        ("counter agrees with the log: " ^ Alert.event_name event)
        (List.length (events_of event trs))
        (Obs.Counter.value
           (Obs.Counter.get_labeled "alert.transitions"
              [ ("rule", "gold-slo-burn"); ("event", Alert.event_name event) ])))
    [ Alert.Pend; Alert.Fire; Alert.Resolve ]

let () =
  Alcotest.run "watch"
    [
      ( "series",
        [
          Alcotest.test_case "rate windows" `Quick test_rate_windows;
          Alcotest.test_case "gauge last value and gaps" `Quick
            test_gauge_last_value_and_gaps;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "quantile matches P2" `Quick
            test_quantile_single_bucket_matches_p2;
          Alcotest.test_case "validation" `Quick test_series_validation;
          Alcotest.test_case "agrees with cumulative histograms" `Quick
            test_series_agree_with_cumulative_histograms;
        ] );
      ( "alert",
        [
          Alcotest.test_case "threshold lifecycle" `Quick
            test_threshold_lifecycle;
          Alcotest.test_case "cooldown suppresses re-arm" `Quick
            test_cooldown_suppresses_rearm;
          Alcotest.test_case "pending lapse is silent" `Quick
            test_pending_lapse_is_silent;
          Alcotest.test_case "missing series is false" `Quick
            test_missing_series_is_false;
          Alcotest.test_case "burn rate" `Quick test_burn_rate_rule;
          Alcotest.test_case "empty total burns zero" `Quick
            test_empty_total_burns_zero;
          Alcotest.test_case "grammar roundtrip" `Quick test_grammar_roundtrip;
          Alcotest.test_case "determinism across reset" `Quick
            test_determinism_across_reset;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "exposition" `Quick test_prometheus_exposition;
        ] );
      ( "sysim",
        [
          Alcotest.test_case "fault-free: no false positives" `Quick
            test_fault_free_no_false_positives;
          Alcotest.test_case "outage detection" `Quick test_outage_detection;
          Alcotest.test_case "burn rate fires" `Quick test_burn_rate_fires;
        ] );
    ]
