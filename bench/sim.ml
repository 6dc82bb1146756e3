(* Discrete-event engine microbenchmark: a hold-model workload (pop
   the earliest event, schedule a successor) drives ≥1M events through
   the timing-wheel engine ([Sim]) and the binary-heap reference
   engine ([Mlv_oracle.Heap_sim], test/oracle/) behind the same
   interface and per-event bookkeeping.  Delays and prefill times are
   drawn into arrays before the clock starts, so the measured loop is
   pure engine cost and the two engines consume the identical event
   stream.

   Each run folds every popped timestamp into an order digest; the
   engines must agree on it bit-for-bit (the same differential
   contract test/test_sim_engine.ml enforces on adversarial streams).
   Inter-event gap percentiles are tracked with the streaming P²
   estimator (Stats.P2) — O(1) memory over a million samples, no
   per-sample storage.

   Each engine is run [--reps] times and the best run is reported:
   wall-clock on a shared machine is min-biased, so the fastest rep is
   the least-interfered estimate of engine speed.  Every rep of every
   engine must produce the same digest and final clock — one assertion
   covering both cross-engine agreement and per-engine determinism.

   Emits BENCH_sim.json with events/s, allocation words/event (from
   Gc counters) and the wheel-over-heap speedup.

   Usage: sim.exe [--events N] [--pending K] [--mean-delay-us D]
                  [--seed S] [--reps R] [--out FILE] [--assert-speedup X]
   Bit-identity between the engines is always asserted.
   Defaults drive 1M events against a 300k-event backlog, with a mean
   delay equal to the backlog (dense: about one event per µs bucket);
   a mean delay far above the backlog (--pending 8 --mean-delay-us
   5000) models the serving workloads' sparse streams, where most
   buckets are empty.  `make bench-sim-smoke` runs a small dense and
   a small sparse configuration as part of `make check`. *)

module Sim = Mlv_cluster.Sim
module Heap_sim = Mlv_oracle.Heap_sim
module Rng = Mlv_util.Rng
module Stats = Mlv_util.Stats
module Obs = Mlv_obs.Obs

type outcome = {
  engine : string;
  events : int;
  wall_s : float;
  events_per_s : float;
  alloc_words_per_event : float;
  final_now_us : float;
  order_digest : int;
  gap_p50_us : float;
  gap_p99_us : float;
}

module type ENGINE = Mlv_oracle.Engine.S

let run_engine (module E : ENGINE) ~engine ~events ~pending ~mean_delay_us ~seed =
  (* Pre-draw the randomness so the measured loop never touches the
     RNG (SplitMix64 boxes an int64 per draw, which would pollute the
     words/event accounting identically for both engines but hide the
     engine difference). *)
  let prefill = min pending events in
  let spawn_budget = events - prefill in
  let rng = Rng.create seed in
  let horizon = mean_delay_us in
  let prefill_at = Array.init prefill (fun _ -> Rng.float rng horizon) in
  let delays =
    Array.init spawn_budget (fun _ -> Rng.exponential rng ~mean:horizon)
  in
  Obs.reset ();
  let sim = E.create () in
  let spawned = ref 0 in
  let digest = ref 0 in
  let last = ref 0.0 in
  let gap_p50 = Stats.P2.create 0.5 in
  let gap_p99 = Stats.P2.create 0.99 in
  (* One handler closure shared by every event: per-event closure
     allocation would otherwise dominate both engines equally. *)
  let events_seen = ref 0 in
  let rec handler () =
    let now = E.now sim in
    (* Fold the raw IEEE bits into the digest: order-sensitive and
       exact, without the hashing cost of [Hashtbl.hash] per event. *)
    digest := (!digest * 31) + Int64.to_int (Int64.bits_of_float now);
    (* Sample the gap estimators at 1/64 so the common harness cost
       stays small next to the engine cost being measured; 1M events
       still feed ~16k samples, far past P² convergence. *)
    incr events_seen;
    if !events_seen land 63 = 0 then begin
      Stats.P2.add gap_p50 (now -. !last);
      Stats.P2.add gap_p99 (now -. !last);
      last := now
    end;
    if !spawned < spawn_budget then begin
      let d = delays.(!spawned) in
      incr spawned;
      E.schedule sim ~delay:d handler
    end
  in
  Gc.full_major ();
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let words0 = Gc.allocated_bytes () /. word_bytes in
  let t0 = Unix.gettimeofday () in
  for i = 0 to prefill - 1 do
    E.schedule_at sim ~at:prefill_at.(i) handler
  done;
  E.run sim;
  let wall_s = Unix.gettimeofday () -. t0 in
  let words1 = Gc.allocated_bytes () /. word_bytes in
  let processed = E.events_processed sim in
  let final_now = E.now sim in
  if processed <> events then begin
    Printf.eprintf "FAIL: %s processed %d events, expected %d\n" engine
      processed events;
    exit 1
  end;
  {
    engine;
    events = processed;
    wall_s;
    events_per_s = (if wall_s > 0.0 then float_of_int processed /. wall_s else 0.0);
    alloc_words_per_event = (words1 -. words0) /. float_of_int processed;
    final_now_us = final_now;
    order_digest = !digest;
    gap_p50_us = Stats.P2.quantile gap_p50;
    gap_p99_us = Stats.P2.quantile gap_p99;
  }

let outcome_json o =
  Obs.Json.Obj
    [
      ("engine", Obs.Json.String o.engine);
      ("events", Obs.Json.Int o.events);
      ("wall_s", Obs.Json.Float o.wall_s);
      ("events_per_s", Obs.Json.Float o.events_per_s);
      ("alloc_words_per_event", Obs.Json.Float o.alloc_words_per_event);
      ("final_now_us", Obs.Json.Float o.final_now_us);
      ("order_digest", Obs.Json.Int o.order_digest);
      ("gap_p50_us", Obs.Json.Float o.gap_p50_us);
      ("gap_p99_us", Obs.Json.Float o.gap_p99_us);
    ]

(* Best of [reps] runs; every rep must reproduce the same digest and
   final clock (per-engine determinism). *)
let best_of impl ~engine ~events ~pending ~mean_delay_us ~seed ~reps =
  let best = ref (run_engine impl ~engine ~events ~pending ~mean_delay_us ~seed) in
  for _ = 2 to reps do
    let o = run_engine impl ~engine ~events ~pending ~mean_delay_us ~seed in
    if
      o.order_digest <> !best.order_digest
      || o.final_now_us <> !best.final_now_us
    then begin
      Printf.eprintf "FAIL: %s engine is not deterministic across reps\n"
        engine;
      exit 1
    end;
    if o.events_per_s > !best.events_per_s then best := o
  done;
  !best

let () =
  let events = ref 1_000_000
  and pending = ref 300_000
  and mean_delay_us = ref None
  and seed = ref 1
  and reps = ref 5
  and out = ref "BENCH_sim.json"
  and assert_speedup = ref 0.0 in
  Arg.parse
    [
      ("--events", Arg.Set_int events, "events to process per engine (default 1000000)");
      ( "--pending",
        Arg.Set_int pending,
        "backlog of pre-scheduled events (default 300000)" );
      ( "--mean-delay-us",
        Arg.Float (fun d -> mean_delay_us := Some d),
        "mean successor delay and prefill horizon in µs (default: the backlog)" );
      ("--seed", Arg.Set_int seed, "event-stream seed (default 1)");
      ("--reps", Arg.Set_int reps, "runs per engine, best reported (default 5)");
      ("--out", Arg.Set_string out, "output JSON path (default BENCH_sim.json)");
      ( "--assert-speedup",
        Arg.Set_float assert_speedup,
        "exit non-zero unless wheel/heap events/s ratio reaches this" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "discrete-event engine microbenchmark";
  if !events <= 0 || !pending <= 0 || !reps <= 0 then begin
    prerr_endline "events, pending and reps must be positive";
    exit 1
  end;
  let mean_delay_us =
    match !mean_delay_us with Some d -> d | None -> float_of_int !pending
  in
  if not (mean_delay_us > 0.0) then begin
    prerr_endline "mean-delay-us must be positive";
    exit 1
  end;
  Printf.printf
    "hold model: %d events, %d pending, mean delay %gus, seed %d, best of %d\n%!"
    !events !pending mean_delay_us !seed !reps;
  let heap =
    best_of (module Heap_sim) ~engine:"heap" ~events:!events ~pending:!pending
      ~mean_delay_us ~seed:!seed ~reps:!reps
  in
  let wheel =
    best_of (module Sim) ~engine:"wheel" ~events:!events ~pending:!pending
      ~mean_delay_us ~seed:!seed ~reps:!reps
  in
  let speedup =
    if heap.events_per_s > 0.0 then wheel.events_per_s /. heap.events_per_s
    else 0.0
  in
  let identical =
    heap.order_digest = wheel.order_digest
    && heap.final_now_us = wheel.final_now_us
  in
  List.iter
    (fun o ->
      Printf.printf
        "%-6s %9.0f events/s  %6.1f words/event  gap p50 %8.2fus p99 %8.2fus  \
         (%.2fs)\n"
        o.engine o.events_per_s o.alloc_words_per_event o.gap_p50_us o.gap_p99_us
        o.wall_s)
    [ heap; wheel ];
  Printf.printf "wheel/heap events/s: %.1fx  order digests %s\n" speedup
    (if identical then "identical" else "DIFFER");
  let json =
    Obs.Json.Obj
      [
        ("benchmark", Obs.Json.String "sim_engine");
        ("events", Obs.Json.Int !events);
        ("pending", Obs.Json.Int !pending);
        ("mean_delay_us", Obs.Json.Float mean_delay_us);
        ("seed", Obs.Json.Int !seed);
        ("reps", Obs.Json.Int !reps);
        ("heap", outcome_json heap);
        ("wheel", outcome_json wheel);
        ("speedup", Obs.Json.Float speedup);
        ("identical", Obs.Json.Bool identical);
      ]
  in
  let oc = open_out !out in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "results written to %s\n" !out;
  if not identical then begin
    Printf.eprintf
      "FAIL: engines disagree (heap digest %d now %.6f, wheel digest %d now %.6f)\n"
      heap.order_digest heap.final_now_us wheel.order_digest wheel.final_now_us;
    exit 1
  end;
  if !assert_speedup > 0.0 && speedup < !assert_speedup then begin
    Printf.eprintf "FAIL: speedup %.2fx below required %.2fx\n" speedup
      !assert_speedup;
    exit 1
  end
