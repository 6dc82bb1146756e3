(* Tests for the observability registry: JSON emitter/validator,
   counters, log-scale histograms, nested spans and reset
   semantics. *)

module Obs = Mlv_obs.Obs
module Json = Obs.Json

(* ---------------- JSON ---------------- *)

let test_json_render () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.Float 2.5);
        ("c", Json.String "x\"y\n");
        ("d", Json.List [ Json.Null; Json.Bool true ]);
      ]
  in
  Alcotest.(check string) "render"
    {|{"a":1,"b":2.5,"c":"x\"y\n","d":[null,true]}|} (Json.to_string v)

let test_json_non_finite () =
  Alcotest.(check string) "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Json.to_string (Json.Float Float.infinity))

let test_json_validator () =
  List.iter
    (fun s -> Alcotest.(check bool) ("valid: " ^ s) true (Json.is_valid s))
    [
      "null";
      "true";
      "-12";
      "3.25e-2";
      {|"esc \" \\ A"|};
      "[1, 2, [3]]";
      {|{"k": {"n": []}, "m": 0.5}|};
    ];
  List.iter
    (fun s -> Alcotest.(check bool) ("invalid: " ^ s) false (Json.is_valid s))
    [ ""; "tru"; "[1,]"; "{k:1}"; {|{"k":1|}; "1 2"; "\"unterminated" ]

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("nested", Json.List [ Json.Obj [ ("x", Json.Float 1e-3) ]; Json.Int (-7) ]);
        ("s", Json.String "tab\tand\\slash");
      ]
  in
  Alcotest.(check bool) "emitted JSON validates" true (Json.is_valid (Json.to_string v))

let test_json_control_chars () =
  Alcotest.(check string) "u0001" "\"\\u0001\"" (Json.to_string (Json.String "\x01"));
  Alcotest.(check string) "u001f" "\"\\u001f\"" (Json.to_string (Json.String "\x1f"));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "escaped %S validates" s)
        true
        (Json.is_valid (Json.to_string (Json.String s))))
    [ "\x01"; "\x1f"; "literal \\u0041 text"; "mix\x02\t\"quote\"\\"; "\x00" ];
  Alcotest.(check bool) "validator accepts unicode escape" true
    (Json.is_valid {|"\u00ff"|});
  Alcotest.(check bool) "validator rejects bad unicode escape" false
    (Json.is_valid {|"\u00zz"|});
  Alcotest.(check bool) "validator rejects short unicode escape" false
    (Json.is_valid {|"\u0a"|})

let test_json_non_finite_nested () =
  let s =
    Json.to_string
      (Json.Obj
         [
           ( "xs",
             Json.List
               [ Json.Float Float.nan; Json.Float Float.neg_infinity; Json.Float 1.5 ]
           );
         ])
  in
  Alcotest.(check string) "non-finite renders null inside structures"
    {|{"xs":[null,null,1.5]}|} s;
  Alcotest.(check bool) "still valid" true (Json.is_valid s)

(* ---------------- Labels ---------------- *)

let test_labels_canonical () =
  let l = Obs.Labels.make [ ("node", "3"); ("kind", "large") ] in
  Alcotest.(check string) "sorted render" "{kind=large,node=3}" (Obs.Labels.render l);
  Alcotest.(check string) "empty render" "" (Obs.Labels.render (Obs.Labels.make []));
  Alcotest.(check string) "key is order-insensitive" "m{a=1,b=2}"
    (Obs.Labels.key "m" [ ("b", "2"); ("a", "1") ])

let test_labels_rejected () =
  let bad kvs =
    try
      ignore (Obs.Labels.make kvs);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "duplicate key" true (bad [ ("k", "1"); ("k", "2") ]);
  Alcotest.(check bool) "empty key" true (bad [ ("", "v") ]);
  Alcotest.(check bool) "brace in value" true (bad [ ("k", "{") ]);
  Alcotest.(check bool) "comma in key" true (bad [ ("a,b", "v") ]);
  Alcotest.(check bool) "equals in value" true (bad [ ("k", "a=b") ]);
  Alcotest.(check bool) "quote in value" true (bad [ ("k", "\"") ]);
  Alcotest.(check bool) "newline in value" true (bad [ ("k", "a\nb") ])

(* ---------------- Counters ---------------- *)

let test_counter_basic () =
  Obs.reset ();
  let c = Obs.Counter.get "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "incremented" 5 (Obs.Counter.value c);
  Alcotest.(check string) "name" "test.counter" (Obs.Counter.name c);
  (* get returns the same counter *)
  Obs.Counter.incr (Obs.Counter.get "test.counter");
  Alcotest.(check int) "shared" 6 (Obs.Counter.value c);
  Alcotest.(check bool) "listed" true (List.mem_assoc "test.counter" (Obs.counters ()))

let test_counter_reset_keeps_handle () =
  Obs.reset ();
  let c = Obs.Counter.get "test.reset" in
  Obs.Counter.add c 10;
  Obs.reset ();
  Alcotest.(check int) "zeroed" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Alcotest.(check int) "handle still live" 1 (Obs.Counter.value c);
  Alcotest.(check int) "registry agrees" 1
    (List.assoc "test.reset" (Obs.counters ()))

let test_labeled_counter_identity () =
  Obs.reset ();
  let a = Obs.Counter.get_labeled "lab.c" [ ("node", "1"); ("kind", "x") ] in
  let b = Obs.Counter.get_labeled "lab.c" [ ("kind", "x"); ("node", "1") ] in
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "permuted labels share the series" 2 (Obs.Counter.value a);
  Alcotest.(check string) "full name" "lab.c{kind=x,node=1}" (Obs.Counter.name a);
  Alcotest.(check string) "base" "lab.c" (Obs.Counter.base a);
  Obs.Counter.incr (Obs.Counter.get "lab.c");
  Alcotest.(check int) "unlabeled member is distinct" 1
    (Obs.Counter.value (Obs.Counter.get "lab.c"))

let test_labeled_export_deterministic () =
  Obs.reset ();
  Obs.Counter.incr (Obs.Counter.get_labeled "det.c" [ ("node", "2") ]);
  Obs.Counter.incr (Obs.Counter.get_labeled "det.c" [ ("node", "10") ]);
  Obs.Counter.incr (Obs.Counter.get "det.c");
  let prefixed n = String.length n >= 5 && String.sub n 0 5 = "det.c" in
  let names = List.map fst (Obs.counters ()) |> List.filter prefixed in
  Alcotest.(check (list string)) "export sorted by full name"
    [ "det.c"; "det.c{node=10}"; "det.c{node=2}" ]
    names;
  let family = Obs.counters_with_base "det.c" in
  Alcotest.(check int) "family view" 3 (List.length family);
  Alcotest.(check bool) "family labels round-trip" true
    (List.exists (fun (_, labels, v) -> labels = [ ("node", "2") ] && v = 1) family)

(* ---------------- Histograms ---------------- *)

let test_histogram_stats () =
  Obs.reset ();
  let h = Obs.Histogram.get "test.hist" in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  List.iter (Obs.Histogram.observe h) [ 10.0; 20.0; 30.0; 40.0 ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 100.0 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" 25.0 (Obs.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 10.0 (Obs.Histogram.min h);
  Alcotest.(check (float 1e-9)) "max" 40.0 (Obs.Histogram.max h)

let test_histogram_percentiles () =
  Obs.reset ();
  let h = Obs.Histogram.get "test.pct" in
  (* 100 samples spanning two decades *)
  for i = 1 to 100 do
    Obs.Histogram.observe h (float_of_int i)
  done;
  let p50 = Obs.Histogram.percentile h 50.0 in
  let p90 = Obs.Histogram.percentile h 90.0 in
  let p99 = Obs.Histogram.percentile h 99.0 in
  (* log buckets give ~12% relative resolution *)
  Alcotest.(check bool) "p50 near 50" true (p50 >= 40.0 && p50 <= 60.0);
  Alcotest.(check bool) "p90 near 90" true (p90 >= 75.0 && p90 <= 100.0);
  Alcotest.(check bool) "ordered" true (p50 <= p90 && p90 <= p99);
  Alcotest.(check bool) "clamped to max" true (p99 <= Obs.Histogram.max h);
  Alcotest.(check (float 1e-9)) "p0 is min" (Obs.Histogram.min h)
    (Obs.Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" (Obs.Histogram.max h)
    (Obs.Histogram.percentile h 100.0)

let test_histogram_rejects_bad_samples () =
  Obs.reset ();
  let h = Obs.Histogram.get "test.bad" in
  Alcotest.(check bool) "nan rejected" true
    (try
       Obs.Histogram.observe h Float.nan;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "inf rejected" true
    (try
       Obs.Histogram.observe h Float.infinity;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad percentile arg" true
    (try
       ignore (Obs.Histogram.percentile h 101.0);
       false
     with Invalid_argument _ -> true)

let test_histogram_zero_and_negative () =
  Obs.reset ();
  let h = Obs.Histogram.get "test.zero" in
  List.iter (Obs.Histogram.observe h) [ 0.0; 0.0; 5.0 ];
  Alcotest.(check int) "count includes zeros" 3 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "min" 0.0 (Obs.Histogram.min h);
  Alcotest.(check (float 1e-9)) "p50 with zeros" 0.0 (Obs.Histogram.percentile h 50.0)

let test_labeled_histogram () =
  Obs.reset ();
  let h = Obs.Histogram.get_labeled "lab.h" [ ("kind", "a") ] in
  Obs.Histogram.observe h 5.0;
  Obs.Histogram.observe (Obs.Histogram.get_labeled "lab.h" [ ("kind", "a") ]) 7.0;
  Obs.Histogram.observe (Obs.Histogram.get_labeled "lab.h" [ ("kind", "b") ]) 9.0;
  Alcotest.(check int) "shared series" 2 (Obs.Histogram.count h);
  Alcotest.(check string) "base" "lab.h" (Obs.Histogram.base h);
  let family = Obs.histograms_with_base "lab.h" in
  Alcotest.(check int) "two series" 2 (List.length family);
  Alcotest.(check bool) "kind=b present" true
    (List.exists
       (fun (_, labels, h) -> labels = [ ("kind", "b") ] && Obs.Histogram.count h = 1)
       family)

(* ---------------- Spans ---------------- *)

let test_span_nesting () =
  Obs.reset ();
  Obs.Span.with_ "outer" (fun () ->
      Obs.Span.with_ "inner" (fun () -> ());
      Obs.Span.with_ "inner2" (fun () -> ()));
  let spans = Obs.spans () in
  Alcotest.(check int) "three spans" 3 (List.length spans);
  (* children complete before the parent: oldest-first order *)
  let by_name n = List.find (fun (r : Obs.span_record) -> r.name = n) spans in
  let outer = by_name "outer" and inner = by_name "inner" and inner2 = by_name "inner2" in
  Alcotest.(check (option int)) "outer is root" None outer.parent;
  Alcotest.(check int) "outer depth" 0 outer.depth;
  Alcotest.(check (option int)) "inner nested" (Some outer.id) inner.parent;
  Alcotest.(check (option int)) "inner2 nested" (Some outer.id) inner2.parent;
  Alcotest.(check int) "inner depth" 1 inner.depth;
  Alcotest.(check bool) "durations non-negative" true
    (List.for_all (fun (r : Obs.span_record) -> r.wall_us >= 0.0) spans);
  Alcotest.(check bool) "parent at least as long" true
    (outer.wall_us >= inner.wall_us)

let test_span_exit_idempotent () =
  Obs.reset ();
  let s = Obs.Span.enter "once" in
  Obs.Span.exit s;
  Obs.Span.exit s;
  Alcotest.(check int) "recorded once" 1 (List.length (Obs.spans ()))

let test_span_records_on_exception () =
  Obs.reset ();
  (try Obs.Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded" 1 (List.length (Obs.spans_matching "boom"));
  (* the span stack unwound: a new span is a root again *)
  Obs.Span.with_ "after" (fun () -> ());
  let after = List.hd (Obs.spans_matching "after") in
  Alcotest.(check (option int)) "stack unwound" None after.Obs.parent

let test_span_feeds_histogram () =
  Obs.reset ();
  Obs.Span.with_ "timed" (fun () -> ());
  let h = Obs.Histogram.get "span.timed.wall_us" in
  Alcotest.(check int) "histogram fed" 1 (Obs.Histogram.count h);
  (* Exits resolve the histogram once per span name; after a reset the
     same registered handle must keep filling, also for a name built
     at run time (equal, not physically the same string). *)
  Obs.reset ();
  Alcotest.(check int) "reset clears" 0 (Obs.Histogram.count h);
  Obs.Span.with_ "timed" (fun () -> ());
  Obs.Span.with_ (String.concat "" [ "ti"; "med" ]) (fun () -> ());
  Alcotest.(check bool) "same handle" true
    (h == Obs.Histogram.get "span.timed.wall_us");
  Alcotest.(check int) "fed after reset" 2 (Obs.Histogram.count h)

let test_span_sim_clock () =
  Obs.reset ();
  let now = ref 100.0 in
  Obs.with_sim_clock
    (fun () -> !now)
    (fun () ->
      let s = Obs.Span.enter "simmed" in
      now := 350.0;
      Obs.Span.exit s);
  let r = List.hd (Obs.spans_matching "simmed") in
  Alcotest.(check (float 1e-9)) "start sim time" 100.0 r.Obs.start_sim_us;
  Alcotest.(check (float 1e-9)) "sim duration" 250.0 r.Obs.sim_us

(* A sim-clock binding lasts exactly as long as its thunk: nothing
   stamps with it afterwards, an inner binding gives the outer one
   back, and a raising thunk unbinds too. *)
let test_sim_clock_scoped () =
  Obs.reset ();
  let stamp name =
    Obs.Span.with_ name (fun () -> ());
    (List.hd (Obs.spans_matching name)).Obs.start_sim_us
  in
  let inner, outer =
    Obs.with_sim_clock
      (fun () -> 5.0)
      (fun () ->
        let inner = Obs.with_sim_clock (fun () -> 7.0) (fun () -> stamp "scope.inner") in
        (inner, stamp "scope.outer"))
  in
  Alcotest.(check (float 1e-9)) "inner binding" 7.0 inner;
  Alcotest.(check (float 1e-9)) "nested scope restores the outer clock" 5.0 outer;
  Alcotest.(check (float 1e-9)) "no stale stamp after the scope" 0.0
    (stamp "scope.after");
  (match Obs.with_sim_clock (fun () -> 9.0) (fun () -> raise Exit) with
  | () -> Alcotest.fail "the thunk raised"
  | exception Exit -> ());
  Alcotest.(check (float 1e-9)) "a raising thunk unbinds" 0.0 (stamp "scope.raised")

let test_spans_matching_substring () =
  Obs.reset ();
  Obs.Span.with_ "alpha.one" (fun () -> ());
  Obs.Span.with_ "alpha.two" (fun () -> ());
  Obs.Span.with_ "beta" (fun () -> ());
  Alcotest.(check int) "alpha matches" 2 (List.length (Obs.spans_matching "alpha"));
  Alcotest.(check int) "exact" 1 (List.length (Obs.spans_matching "beta"));
  Alcotest.(check int) "none" 0 (List.length (Obs.spans_matching "gamma"))

(* Regression: [reset] used to leave [Span.next_id] running, so two
   otherwise identical runs separated by a reset exported different
   span ids (and parent references), breaking run-to-run diffing of
   metrics and trace dumps within one process. *)
let test_reset_restarts_span_ids () =
  let run () =
    Obs.reset ();
    Obs.Span.with_ "rr.outer" (fun () ->
        Obs.Span.with_ "rr.inner" (fun () -> ()));
    List.map
      (fun (r : Obs.span_record) -> (r.id, r.parent, r.name))
      (Obs.spans ())
  in
  let a = run () in
  let b = run () in
  Alcotest.(check (list (triple int (option int) string)))
    "reset-separated runs export identical span ids" a b;
  Alcotest.(check bool) "ids restart at 0" true
    (List.exists (fun (id, parent, _) -> id = 0 && parent = None) b)

let test_spans_matching_edges () =
  (* Edge cases of the allocation-free substring scan behind
     [spans_matching]: overlapping prefixes must backtrack, a needle
     longer than the name must not read past it, and the empty needle
     matches everything. *)
  Obs.reset ();
  Obs.Span.with_ "aaab" (fun () -> ());
  Alcotest.(check int) "overlapping prefix" 1 (List.length (Obs.spans_matching "aab"));
  Alcotest.(check int) "needle longer than name" 0
    (List.length (Obs.spans_matching "aaabb"));
  Alcotest.(check int) "suffix" 1 (List.length (Obs.spans_matching "ab"));
  Alcotest.(check int) "exact name" 1 (List.length (Obs.spans_matching "aaab"));
  Alcotest.(check int) "empty needle matches" 1 (List.length (Obs.spans_matching ""));
  Alcotest.(check int) "no match" 0 (List.length (Obs.spans_matching "abab"))

let test_span_args () =
  Obs.reset ();
  Obs.Span.with_span "argspan" (fun s ->
      Obs.Span.add_arg s "a" "1";
      Obs.Span.add_arg s "b" "2");
  let r = List.hd (Obs.spans_matching "argspan") in
  Alcotest.(check (list (pair string string))) "args in insertion order"
    [ ("a", "1"); ("b", "2") ]
    r.Obs.args

(* ---------------- Lifecycle trace ---------------- *)

let with_tracing ?(clock = fun () -> 0.0) f =
  Obs.with_sim_clock clock (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_enabled false)
        (fun () ->
          Obs.Trace.set_enabled true;
          f ()))

let test_trace_disabled_noop () =
  Obs.reset ();
  Alcotest.(check bool) "off by default" false (Obs.Trace.enabled ());
  Obs.Trace.task Obs.Trace.Arrive 1;
  Obs.Trace.mark "nothing";
  Alcotest.(check int) "no events" 0 (Obs.Trace.recorded ());
  Alcotest.(check int) "no counts" 0 (Obs.Trace.count Obs.Trace.Arrive)

let test_trace_lifecycle () =
  Obs.reset ();
  with_tracing ~clock:(fun () -> 123.0) (fun () ->
      Obs.Trace.task Obs.Trace.Arrive 7 ~label:"npu";
      Obs.Trace.task Obs.Trace.Deploy 7 ~node:2 ~deployment:5 ~retries:1 ~label:"npu";
      Obs.Trace.mark ~node:2 "fault.crash";
      let evs = Obs.Trace.events () in
      Alcotest.(check int) "three events" 3 (List.length evs);
      let d = List.nth evs 1 in
      Alcotest.(check (option int)) "task id" (Some 7) d.Obs.Trace.task;
      Alcotest.(check (option int)) "node" (Some 2) d.Obs.Trace.node;
      Alcotest.(check (option int)) "deployment" (Some 5) d.Obs.Trace.deployment;
      Alcotest.(check int) "retries" 1 d.Obs.Trace.retries;
      Alcotest.(check (float 1e-9)) "sim stamp" 123.0 d.Obs.Trace.at_sim_us;
      Alcotest.(check string) "phase name" "deploy"
        (Obs.Trace.phase_name d.Obs.Trace.phase);
      let m = List.nth evs 2 in
      Alcotest.(check (option int)) "mark has no task" None m.Obs.Trace.task;
      Alcotest.(check string) "mark label" "fault.crash" m.Obs.Trace.label;
      Alcotest.(check int) "arrive count" 1 (Obs.Trace.count Obs.Trace.Arrive);
      Alcotest.(check int) "mark count" 1 (Obs.Trace.count Obs.Trace.Mark);
      Alcotest.(check bool) "seq strictly increasing" true
        (let rec mono = function
           | a :: (b :: _ as rest) ->
             a.Obs.Trace.seq < b.Obs.Trace.seq && mono rest
           | _ -> true
         in
         mono evs))

let test_trace_ring_overflow () =
  Obs.reset ();
  with_tracing (fun () ->
      let capacity = 65536 in
      let extra = 100 in
      for i = 0 to capacity + extra - 1 do
        Obs.Trace.task Obs.Trace.Queue i
      done;
      Alcotest.(check int) "ring holds capacity" capacity
        (List.length (Obs.Trace.events ()));
      Alcotest.(check int) "recorded counts every emit" (capacity + extra)
        (Obs.Trace.recorded ());
      Alcotest.(check int) "dropped = overflow" extra (Obs.Trace.dropped ());
      Alcotest.(check int) "phase count survives drops" (capacity + extra)
        (Obs.Trace.count Obs.Trace.Queue);
      (match Obs.Trace.events () with
      | e :: _ ->
        Alcotest.(check (option int)) "oldest events dropped first" (Some extra)
          e.Obs.Trace.task
      | [] -> Alcotest.fail "ring empty");
      Obs.reset ();
      Alcotest.(check int) "reset clears recorded" 0 (Obs.Trace.recorded ());
      Alcotest.(check int) "reset clears dropped" 0 (Obs.Trace.dropped ());
      Alcotest.(check int) "reset clears counts" 0 (Obs.Trace.count Obs.Trace.Queue);
      Alcotest.(check int) "reset clears ring" 0 (List.length (Obs.Trace.events ())))

let contains needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_trace_chrome_export () =
  Obs.reset ();
  with_tracing ~clock:(fun () -> 50.0) (fun () ->
      Obs.Span.with_span "chrome.span" (fun s -> Obs.Span.add_arg s "key" "val");
      Obs.Trace.task Obs.Trace.Service 3 ~node:1 ~deployment:4 ~label:"npu";
      Obs.Trace.mark "fault.degrade";
      let s = Json.to_string (Obs.Trace.to_chrome_json ()) in
      Alcotest.(check bool) "valid json" true (Json.is_valid s);
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("contains " ^ needle) true (contains needle s))
        [
          {|"traceEvents"|};
          {|"displayTimeUnit"|};
          {|"process_name"|};
          {|"thread_name"|};
          {|chrome.span|};
          {|"key":"val"|};
          {|"task_events_recorded":2|};
          {|"task_events_dropped":0|};
          {|"spans_dropped":0|};
          {|"phase_counts"|};
          {|"tracing_enabled":true|};
        ])

let test_trace_chrome_export_reports_drops () =
  Obs.reset ();
  with_tracing (fun () ->
      for i = 0 to 65536 + 9 do
        Obs.Trace.task Obs.Trace.Queue i
      done;
      let s = Json.to_string (Obs.Trace.to_chrome_json ()) in
      Alcotest.(check bool) "valid json" true (Json.is_valid s);
      Alcotest.(check bool) "explicit drop count" true
        (contains {|"task_events_dropped":10|} s))

(* ---------------- Export & reset ---------------- *)

let test_export_json_valid () =
  Obs.reset ();
  Obs.Counter.add (Obs.Counter.get "exp.counter") 3;
  Obs.Histogram.observe (Obs.Histogram.get "exp.hist") 42.0;
  Obs.Span.with_ "exp.span" (fun () -> ());
  let s = Obs.json_string () in
  Alcotest.(check bool) "valid json" true (Json.is_valid s);
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (contains needle s))
    [
      {|"version":1|};
      {|"exp.counter":3|};
      {|"exp.hist"|};
      {|"p99"|};
      {|"exp.span"|};
      {|"spans_dropped":0|};
    ]

let test_write_json_file () =
  Obs.reset ();
  Obs.Counter.incr (Obs.Counter.get "file.counter");
  let path = Filename.temp_file "mlv_obs" ".json" in
  Obs.write_json path;
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "file holds valid json" true (Json.is_valid s)

let test_render_mentions_everything () =
  Obs.reset ();
  Obs.Counter.incr (Obs.Counter.get "ren.counter");
  Obs.Histogram.observe (Obs.Histogram.get "ren.hist") 7.0;
  Obs.Span.with_ "ren.span" (fun () -> ());
  let s = Obs.render () in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub s i nn = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("mentions " ^ needle) true (contains needle))
    [ "ren.counter"; "ren.hist"; "ren.span" ]

let test_reset_clears_everything () =
  Obs.reset ();
  Obs.Counter.incr (Obs.Counter.get "wipe.c");
  Obs.Histogram.observe (Obs.Histogram.get "wipe.h") 1.0;
  Obs.Span.with_ "wipe.s" (fun () -> ());
  Obs.reset ();
  Alcotest.(check bool) "counters zero" true
    (List.for_all (fun (_, v) -> v = 0) (Obs.counters ()));
  Alcotest.(check bool) "histograms empty" true
    (List.for_all (fun (_, h) -> Obs.Histogram.count h = 0) (Obs.histograms ()));
  Alcotest.(check int) "spans gone" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "drop count cleared" 0 (Obs.dropped_spans ())

(* ---- hardening: JSON pinning for degenerate histograms ---- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* An empty histogram (registered but never observed) must export
   clean zeros: valid JSON, no null/NaN/inf tokens anywhere in the
   registry dump. *)
let test_empty_histogram_json () =
  Obs.reset ();
  let h = Obs.Histogram.get "hard.empty" in
  Alcotest.(check int) "count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Obs.Histogram.mean h);
  Alcotest.(check (float 0.0)) "min" 0.0 (Obs.Histogram.min h);
  Alcotest.(check (float 0.0)) "max" 0.0 (Obs.Histogram.max h);
  Alcotest.(check (float 0.0)) "p50" 0.0 (Obs.Histogram.percentile h 50.0);
  Alcotest.(check (float 0.0)) "p99" 0.0 (Obs.Histogram.percentile h 99.0);
  let s = Obs.json_string () in
  Alcotest.(check bool) "parses back" true (Json.parse s <> None);
  List.iter
    (fun tok ->
      Alcotest.(check bool) ("no " ^ tok) false (contains s tok))
    [ "null"; "nan"; "NaN"; "inf" ]

let test_single_sample_histogram_json () =
  Obs.reset ();
  let h = Obs.Histogram.get "hard.one" in
  Obs.Histogram.observe h 42.0;
  Alcotest.(check int) "count" 1 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "mean exact" 42.0 (Obs.Histogram.mean h);
  Alcotest.(check (float 0.0)) "min" 42.0 (Obs.Histogram.min h);
  Alcotest.(check (float 0.0)) "max" 42.0 (Obs.Histogram.max h);
  (* log-bucketed: percentiles are only exact to bucket resolution *)
  let p50 = Obs.Histogram.percentile h 50.0 in
  Alcotest.(check bool) "p50 within bucket resolution" true
    (Float.abs (p50 -. 42.0) /. 42.0 < 0.15);
  let s = Obs.json_string () in
  Alcotest.(check bool) "parses back" true (Json.parse s <> None);
  Alcotest.(check bool) "no null" false (contains s "null")

(* The occupied-range percentile and the in-place clear against the
   full-scan oracle, bit for bit, over samples that include zeros,
   negatives and values past the bucket clamp, with clears
   interleaved.  After every clear the histogram must also read like a
   fresh detached one. *)
let histogram_ps = [ 0.0; 1.0; 50.0; 99.0; 100.0 ]

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let histogram_reads h ~count ~sum ~min ~max ~percentile =
  Obs.Histogram.count h = count
  && same_float (Obs.Histogram.sum h) sum
  && same_float (Obs.Histogram.min h) min
  && same_float (Obs.Histogram.max h) max
  && List.for_all
       (fun p -> same_float (Obs.Histogram.percentile h p) (percentile p))
       histogram_ps

let gen_histogram_op =
  let open QCheck.Gen in
  frequency
    [
      (1, return None);
      (2, return (Some 0.0));
      (2, map (fun x -> Some (-.x)) (float_range 0.0 1e6));
      (8, map (fun e -> Some (10.0 ** e)) (float_range (-35.0) 35.0));
      (6, map (fun x -> Some x) (float_range 0.5 2_000.0));
    ]

let prop_histogram_matches_oracle =
  QCheck.Test.make ~name:"percentile and clear equal the full-scan oracle"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (option (Printf.sprintf "%h")))
       QCheck.Gen.(list_size (int_range 0 120) gen_histogram_op))
    (fun ops ->
      let h = Obs.Histogram.detached () in
      let o = Histogram_oracle.create () in
      let agrees () =
        histogram_reads h ~count:(Histogram_oracle.count o)
          ~sum:(Histogram_oracle.sum o) ~min:(Histogram_oracle.min o)
          ~max:(Histogram_oracle.max o)
          ~percentile:(Histogram_oracle.percentile o)
      in
      let fresh = Obs.Histogram.detached () in
      let reads_fresh () =
        histogram_reads h ~count:(Obs.Histogram.count fresh)
          ~sum:(Obs.Histogram.sum fresh) ~min:(Obs.Histogram.min fresh)
          ~max:(Obs.Histogram.max fresh)
          ~percentile:(Obs.Histogram.percentile fresh)
      in
      List.for_all
        (fun op ->
          (match op with
          | Some v ->
            Obs.Histogram.observe h v;
            Histogram_oracle.observe o v
          | None ->
            Obs.Histogram.clear h;
            Histogram_oracle.clear o);
          agrees () && (op <> None || reads_fresh ()))
        ops)

let test_percentile_rejects_bad_p () =
  Obs.reset ();
  let h = Obs.Histogram.get "hard.p" in
  Obs.Histogram.observe h 1.0;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p=%f rejected" p)
        true
        (try
           ignore (Obs.Histogram.percentile h p);
           false
         with Invalid_argument _ -> true))
    [ Float.nan; -1.0; 100.5; Float.infinity ]

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "render" `Quick test_json_render;
          Alcotest.test_case "non-finite" `Quick test_json_non_finite;
          Alcotest.test_case "validator" `Quick test_json_validator;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "control chars" `Quick test_json_control_chars;
          Alcotest.test_case "non-finite nested" `Quick test_json_non_finite_nested;
        ] );
      ( "labels",
        [
          Alcotest.test_case "canonical" `Quick test_labels_canonical;
          Alcotest.test_case "rejected" `Quick test_labels_rejected;
        ] );
      ( "counter",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "reset keeps handle" `Quick test_counter_reset_keeps_handle;
          Alcotest.test_case "labeled identity" `Quick test_labeled_counter_identity;
          Alcotest.test_case "labeled export deterministic" `Quick
            test_labeled_export_deterministic;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "stats" `Quick test_histogram_stats;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "rejects bad samples" `Quick
            test_histogram_rejects_bad_samples;
          Alcotest.test_case "zero samples" `Quick test_histogram_zero_and_negative;
          Alcotest.test_case "labeled" `Quick test_labeled_histogram;
          Alcotest.test_case "empty json pins" `Quick test_empty_histogram_json;
          Alcotest.test_case "single sample json" `Quick
            test_single_sample_histogram_json;
          Alcotest.test_case "percentile rejects bad p" `Quick
            test_percentile_rejects_bad_p;
          QCheck_alcotest.to_alcotest prop_histogram_matches_oracle;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exit idempotent" `Quick test_span_exit_idempotent;
          Alcotest.test_case "exception safety" `Quick test_span_records_on_exception;
          Alcotest.test_case "feeds histogram" `Quick test_span_feeds_histogram;
          Alcotest.test_case "sim clock" `Quick test_span_sim_clock;
          Alcotest.test_case "sim clock scoped" `Quick test_sim_clock_scoped;
          Alcotest.test_case "substring match" `Quick test_spans_matching_substring;
          Alcotest.test_case "substring scan edges" `Quick test_spans_matching_edges;
          Alcotest.test_case "reset restarts span ids" `Quick
            test_reset_restarts_span_ids;
          Alcotest.test_case "args" `Quick test_span_args;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "lifecycle" `Quick test_trace_lifecycle;
          Alcotest.test_case "ring overflow" `Quick test_trace_ring_overflow;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
          Alcotest.test_case "chrome export reports drops" `Quick
            test_trace_chrome_export_reports_drops;
        ] );
      ( "export",
        [
          Alcotest.test_case "json valid" `Quick test_export_json_valid;
          Alcotest.test_case "write file" `Quick test_write_json_file;
          Alcotest.test_case "render" `Quick test_render_mentions_everything;
          Alcotest.test_case "reset" `Quick test_reset_clears_everything;
        ] );
    ]
