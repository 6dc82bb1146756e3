(* Tests for the workload library: DeepBench points, size classes and
   the Table-1 synthetic workload generator. *)

module Deepbench = Mlv_workload.Deepbench
module Sizes = Mlv_workload.Sizes
module Genset = Mlv_workload.Genset
module Metrics = Mlv_workload.Metrics
module Codegen = Mlv_isa.Codegen
module Program = Mlv_isa.Program
module Rng = Mlv_util.Rng

let test_table4_points () =
  Alcotest.(check int) "7 points" 7 (List.length Deepbench.table4_points);
  let first = List.hd Deepbench.table4_points in
  Alcotest.(check string) "first name" "GRU h=512 t=1" (Deepbench.name first)

let test_weight_words () =
  let gru = { Deepbench.kind = Codegen.Gru; hidden = 100; timesteps = 1 } in
  Alcotest.(check int) "gru 6 matrices" 60_000 (Deepbench.weight_words gru);
  let lstm = { Deepbench.kind = Codegen.Lstm; hidden = 100; timesteps = 1 } in
  Alcotest.(check int) "lstm 8 matrices" 80_000 (Deepbench.weight_words lstm)

let test_programs_validate () =
  List.iter
    (fun p ->
      (* Scale the timesteps down to keep the test fast. *)
      let p = { p with Deepbench.timesteps = min 2 p.Deepbench.timesteps } in
      let program, _ = Deepbench.program p in
      Alcotest.(check (list string)) (Deepbench.name p) [] (Program.validate program))
    Deepbench.extended_points

let test_classify () =
  Alcotest.(check bool) "512 S" true (Sizes.classify 512 = Sizes.S);
  Alcotest.(check bool) "1024 S" true (Sizes.classify 1024 = Sizes.S);
  Alcotest.(check bool) "1025 M" true (Sizes.classify 1025 = Sizes.M);
  Alcotest.(check bool) "2048 M" true (Sizes.classify 2048 = Sizes.M);
  Alcotest.(check bool) "2049 L" true (Sizes.classify 2049 = Sizes.L)

let test_points_of_class_nonempty () =
  List.iter
    (fun c ->
      Alcotest.(check bool) (Sizes.name c) true (Sizes.points_of_class c <> []))
    [ Sizes.S; Sizes.M; Sizes.L ];
  (* classes partition the extended points *)
  let total =
    List.length (Sizes.points_of_class Sizes.S)
    + List.length (Sizes.points_of_class Sizes.M)
    + List.length (Sizes.points_of_class Sizes.L)
  in
  Alcotest.(check int) "partition" (List.length Deepbench.extended_points) total

let test_table1_shape () =
  Alcotest.(check int) "10 sets" 10 (Array.length Genset.table1);
  Array.iter
    (fun c ->
      let sum = c.Genset.s +. c.Genset.m +. c.Genset.l in
      Alcotest.(check bool) "sums to 1" true (Float.abs (sum -. 1.0) < 0.02))
    Genset.table1

let test_composition_name () =
  Alcotest.(check string) "pure S" "100%S" (Genset.composition_name Genset.table1.(0));
  Alcotest.(check string) "mixed" "50%S+50%L" (Genset.composition_name Genset.table1.(4))

let test_generate_deterministic () =
  let gen seed =
    Genset.generate ~rng:(Rng.create seed) ~composition:Genset.table1.(6) ~tasks:50
      ~mean_interarrival_us:100.0
  in
  Alcotest.(check bool) "same seed same tasks" true (gen 1 = gen 1);
  Alcotest.(check bool) "different seed differs" true (gen 1 <> gen 2)

let test_generate_arrivals_sorted () =
  let tasks =
    Genset.generate ~rng:(Rng.create 3) ~composition:Genset.table1.(6) ~tasks:100
      ~mean_interarrival_us:50.0
  in
  let arrivals = List.map (fun t -> t.Genset.arrival_us) tasks in
  let rec sorted = function
    | a :: (b :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted arrivals);
  Alcotest.(check bool) "positive" true (List.for_all (fun a -> a > 0.0) arrivals)

let test_generate_composition_respected () =
  let tasks =
    Genset.generate ~rng:(Rng.create 5) ~composition:Genset.table1.(0) (* 100% S *)
      ~tasks:200 ~mean_interarrival_us:10.0
  in
  let hist = Genset.class_histogram tasks in
  Alcotest.(check int) "all S" 200 (List.assoc Sizes.S hist);
  Alcotest.(check int) "no M" 0 (List.assoc Sizes.M hist);
  let mixed =
    Genset.generate ~rng:(Rng.create 5) ~composition:Genset.table1.(4) (* 50/0/50 *)
      ~tasks:400 ~mean_interarrival_us:10.0
  in
  let h = Genset.class_histogram mixed in
  Alcotest.(check int) "no M in set 5" 0 (List.assoc Sizes.M h);
  let s = List.assoc Sizes.S h in
  Alcotest.(check bool) "roughly half S" true (s > 150 && s < 250)

let test_generate_validation () =
  Alcotest.(check bool) "zero tasks" true
    (try
       ignore
         (Genset.generate ~rng:(Rng.create 1) ~composition:Genset.table1.(0) ~tasks:0
            ~mean_interarrival_us:1.0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad composition" true
    (try
       ignore
         (Genset.generate ~rng:(Rng.create 1)
            ~composition:{ Genset.s = 0.5; m = 0.0; l = 0.0 }
            ~tasks:1 ~mean_interarrival_us:1.0);
       false
     with Invalid_argument _ -> true)

(* Regression: the legacy [Bursty] process reads the phase once per
   draw, so a long busy-phase draw can overshoot into the quiet window
   and land an arrival where the trace says the source is silent.
   [Bursty_phased] clamps each draw at phase boundaries (restarting
   the memoryless draw at the boundary rate), so with an essentially
   silent quiet phase no arrival may fall inside it. *)
let test_bursty_phase_overshoot () =
  let on_us = 2_000.0 and off_us = 8_000.0 in
  let on_mean_us = 50.0 and off_mean_us = 1e9 in
  let in_off t = Float.rem t (on_us +. off_us) >= on_us in
  let arrivals arrival =
    Genset.generate_arrival ~rng:(Rng.create 11) ~composition:Genset.table1.(0)
      ~tasks:300 ~arrival
    |> List.map (fun t -> t.Genset.arrival_us)
  in
  let legacy =
    arrivals (Genset.Bursty { on_us; off_us; on_mean_us; off_mean_us })
  in
  let phased =
    arrivals (Genset.Bursty_phased { on_us; off_us; on_mean_us; off_mean_us })
  in
  let off_count xs = List.length (List.filter in_off xs) in
  (* the legacy process demonstrably overshoots (this is the bug) ... *)
  Alcotest.(check bool) "legacy overshoots into quiet phase" true
    (off_count legacy > 0);
  (* ... and the phased process never does *)
  Alcotest.(check int) "phased stays inside busy phases" 0 (off_count phased)

(* Regression for the single-pass [class_histogram]: it must count
   exactly what per-class filters count, with every class present. *)
let test_class_histogram_single_pass () =
  let tasks =
    Genset.generate ~rng:(Rng.create 7) ~composition:Genset.table1.(6)
      ~tasks:500 ~mean_interarrival_us:10.0
  in
  let hist = Genset.class_histogram tasks in
  Alcotest.(check int) "three buckets" 3 (List.length hist);
  List.iter
    (fun c ->
      let naive =
        List.length (List.filter (fun t -> t.Genset.model_class = c) tasks)
      in
      Alcotest.(check int) (Sizes.name c) naive (List.assoc c hist))
    [ Sizes.S; Sizes.M; Sizes.L ];
  Alcotest.(check int) "buckets sum to tasks" 500
    (List.fold_left (fun a (_, n) -> a + n) 0 hist)

(* Property: generated points always belong to their class. *)
let prop_class_consistent =
  QCheck.Test.make ~name:"task class matches point" ~count:30 QCheck.(int_range 0 9)
    (fun set ->
      let tasks =
        Genset.generate ~rng:(Rng.create set) ~composition:Genset.table1.(set)
          ~tasks:50 ~mean_interarrival_us:10.0
      in
      List.for_all
        (fun t -> Sizes.classify_point t.Genset.point = t.Genset.model_class)
        tasks)


(* ---------------- Metrics ---------------- *)

let test_metrics_summary () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  match Metrics.summarize xs with
  | None -> Alcotest.fail "summary expected"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "mean" 50.5 s.Metrics.mean;
    Alcotest.(check (float 1e-6)) "p50" 50.5 s.Metrics.p50;
    Alcotest.(check (float 1e-9)) "min" 1.0 s.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 100.0 s.Metrics.max;
    Alcotest.(check bool) "ordered percentiles" true
      (s.Metrics.p50 <= s.Metrics.p90 && s.Metrics.p90 <= s.Metrics.p95
      && s.Metrics.p95 <= s.Metrics.p99)

let test_metrics_empty () =
  Alcotest.(check bool) "none" true (Metrics.summarize [] = None)

let () =
  Alcotest.run "workload"
    [
      ( "deepbench",
        [
          Alcotest.test_case "table 4 points" `Quick test_table4_points;
          Alcotest.test_case "weight words" `Quick test_weight_words;
          Alcotest.test_case "programs validate" `Quick test_programs_validate;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "points per class" `Quick test_points_of_class_nonempty;
        ] );
      ( "genset",
        [
          Alcotest.test_case "table 1 shape" `Quick test_table1_shape;
          Alcotest.test_case "composition names" `Quick test_composition_name;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "arrivals sorted" `Quick test_generate_arrivals_sorted;
          Alcotest.test_case "composition respected" `Quick test_generate_composition_respected;
          Alcotest.test_case "validation" `Quick test_generate_validation;
          Alcotest.test_case "bursty phase overshoot" `Quick
            test_bursty_phase_overshoot;
          Alcotest.test_case "class histogram single pass" `Quick
            test_class_histogram_single_pass;
          QCheck_alcotest.to_alcotest prop_class_consistent;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "summary" `Quick test_metrics_summary;
          Alcotest.test_case "empty" `Quick test_metrics_empty;
        ] );
    ]
