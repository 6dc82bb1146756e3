(* Differential suite for the discrete-event engine: the timing wheel
   ([Sim]) must fire every event in the same order at the same time as
   the binary-heap oracle ([Mlv_oracle.Heap_sim]), including FIFO
   tie-breaks, on adversarial streams.  End-to-end sysim results under
   the wheel (open loop, fault plans, elastic serving) are pinned to
   digests both engines produced.  The microbenchmark (bench/sim.ml)
   asserts the same order contract over millions of events; this suite
   pins it in the test tier with small, fast cases. *)

module Sim = Mlv_cluster.Sim
module Heap_sim = Mlv_oracle.Heap_sim
module Fault_plan = Mlv_cluster.Fault_plan
module Sysim = Mlv_sysim.Sysim
module Runtime = Mlv_core.Runtime
module Genset = Mlv_workload.Genset
module Rng = Mlv_util.Rng

(* The registry build compiles ten accelerator instances; share it. *)
let registry = lazy (Sysim.build_registry ())

(* ---------------- Sim-level ordering ---------------- *)

module type ENGINE = Mlv_oracle.Engine.S

let heap = (module Heap_sim : ENGINE)
let wheel = (module Sim : ENGINE)

(* Fire the spec on one engine and return the (time, tag) sequence. *)
let fire_order (module E : ENGINE) spec =
  let sim = E.create () in
  let log = ref [] in
  List.iter
    (fun (at, tag) ->
      E.schedule_at sim ~at (fun () -> log := (E.now sim, tag) :: !log))
    spec;
  E.run sim;
  List.rev !log

let check_same_order name spec =
  let h = fire_order heap spec in
  let w = fire_order wheel spec in
  Alcotest.(check (list (pair (float 0.0) int))) name h w

let test_fifo_tie_break () =
  (* Equal timestamps must fire in insertion order on both engines,
     interleaved with distinct times on either side.  [float 0.0]
     checks demand exact equality. *)
  let spec =
    [
      (5.0, 0);
      (3.0, 1);
      (5.0, 2);
      (1.0, 3);
      (5.0, 4);
      (3.0, 5);
      (9.0, 6);
      (5.0, 7);
    ]
  in
  check_same_order "tie order" spec;
  (* The wheel's in-bucket sort must yield FIFO for the ties itself,
     not just agree with the heap. *)
  let w = fire_order wheel spec in
  let ties = List.filter_map (fun (t, g) -> if t = 5.0 then Some g else None) w in
  Alcotest.(check (list int)) "FIFO among equal times" [ 0; 2; 4; 7 ] ties

let test_random_stream_differential () =
  (* A hold model over a deliberately nasty time distribution:
     clustered times (many bucket collisions and exact ties from the
     coarse quantisation) plus occasional far-future jumps that cross
     wheel levels. *)
  let spec (module E : ENGINE) =
    let rng = Rng.create 7 in
    let sim = E.create () in
    let log = ref [] in
    let count = ref 0 in
    let rec handler () =
      log := E.now sim :: !log;
      if !count < 3000 then begin
        incr count;
        let r = Rng.float rng 1.0 in
        let delay =
          if r < 0.5 then Float.of_int (Rng.int rng 40) (* exact ties *)
          else if r < 0.9 then Rng.float rng 5_000.0
          else Rng.float rng 40_000_000.0 (* level-2 / overflow hops *)
        in
        E.schedule sim ~delay handler
      end
    in
    for _ = 1 to 50 do
      E.schedule_at sim ~at:(Rng.float rng 100.0) handler
    done;
    E.run sim;
    List.rev !log
  in
  let h = spec heap and w = spec wheel in
  Alcotest.(check int) "same length" (List.length h) (List.length w);
  Alcotest.(check (list (float 0.0))) "same pop times" h w

let test_run_until_agrees () =
  let go (module E : ENGINE) =
    let sim = E.create () in
    let fired = ref [] in
    List.iter
      (fun at -> E.schedule_at sim ~at (fun () -> fired := at :: !fired))
      [ 10.0; 250.0; 250.0; 4096.0; 100_000.0 ];
    E.run ~until:300.0 sim;
    let mid = (E.now sim, List.rev !fired, E.pending sim) in
    E.run sim;
    (mid, E.now sim, E.events_processed sim)
  in
  let h = go heap and w = go wheel in
  let (hn, hf, hp), hend, hev = h and (wn, wf, wp), wend, wev = w in
  Alcotest.(check (float 0.0)) "clock at limit" hn wn;
  Alcotest.(check (list (float 0.0))) "fired before limit" hf wf;
  Alcotest.(check int) "pending after limit" hp wp;
  Alcotest.(check (float 0.0)) "final clock" hend wend;
  Alcotest.(check int) "events processed" hev wev

(* ---------------- Sysim end-to-end ---------------- *)

(* Whole-run pins: the MD5 of each result, scrubbed of the wall clock
   and marshalled without sharing, so every counter, every float and
   the completion-order latency list (an order-sensitive fingerprint
   of the whole event sequence) take part.  The pins were first
   recorded while the heap engine was still selectable inside
   [Sysim.run], with the heap and wheel runs producing the identical
   result; they were re-recorded when the open loop became the
   dispatch loop's FIFO policy, with every model field unchanged (only
   the open runs' [batches] and [scale_ups] and the serving run's
   [mean_wait_us], now taken at completion, moved). *)
let check_pin name cfg ~pin =
  let r = Sysim.run ~registry:(Lazy.force registry) cfg in
  let scrubbed = { r with Sysim.loop_wall_s = 0.0 } in
  Alcotest.(check string)
    (name ^ ": result digest")
    pin
    (Digest.to_hex (Digest.string (Marshal.to_string scrubbed [ Marshal.No_sharing ])))

let test_sysim_open_loop () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  check_pin "open loop" { cfg with Sysim.tasks = 30 }
    ~pin:"3c2eb3f2cb7287e93792fd0593d5b085"

let test_sysim_faults () =
  let plan =
    match Fault_plan.of_string "crash@8000:1,degrade@12000:0.6,restore@20000:1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  check_pin "faults"
    { cfg with Sysim.tasks = 30; faults = Some (Sysim.default_faults plan) }
    ~pin:"d5901e8786d5f569bed22ede304a36bf"

let test_sysim_serving () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(7)
  in
  check_pin "serving"
    {
      cfg with
      Sysim.tasks = 40;
      arrival = Genset.Exponential { mean_us = 120.0 };
      serving = Some Sysim.default_serving;
    }
    ~pin:"5a353aacd1def132e251001fc69119a4"

let () =
  Alcotest.run "sim_engine"
    [
      ( "ordering",
        [
          Alcotest.test_case "FIFO tie-break" `Quick test_fifo_tie_break;
          Alcotest.test_case "random stream differential" `Quick
            test_random_stream_differential;
          Alcotest.test_case "run ~until agrees" `Quick test_run_until_agrees;
        ] );
      ( "sysim",
        [
          Alcotest.test_case "open loop bit-identical" `Quick test_sysim_open_loop;
          Alcotest.test_case "fault plan bit-identical" `Quick test_sysim_faults;
          Alcotest.test_case "serving bit-identical" `Quick test_sysim_serving;
        ] );
    ]
