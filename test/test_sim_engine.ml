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
module Wheel = Mlv_util.Timing_wheel

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

(* ---------------- Sparse and edge-case streams ---------------- *)

(* [Sim]'s semantics over a wheel that one earlier use left full and
   [clear] then emptied: the reused wheel must pop exactly as a fresh
   one.  Each [create] dirties the shared wheel before clearing it:
   pending cells on every level and the overflow list, an open batch,
   and two occupied level-0 slots in every 32-slot word. *)
module Reused_wheel = struct
  type t = { wheel : Wheel.t; now : float ref; mutable processed : int }

  let shared = Wheel.create ()

  let create () =
    for w = 0 to 63 do
      Wheel.push shared ~at:(Float.of_int (32 * w) +. 1.5) ignore;
      Wheel.push shared ~at:(Float.of_int (32 * w) +. 30.5) ignore
    done;
    List.iter
      (fun at -> Wheel.push shared ~at ignore)
      [ 2048.0; 2049.0; 5e5; 4194304.0; 8589934592.0; 1e12 ];
    ignore (Wheel.pop shared);
    Wheel.clear shared;
    { wheel = shared; now = ref 0.0; processed = 0 }

  let now t = !(t.now)
  let schedule t ~delay f = Wheel.push t.wheel ~at:(!(t.now) +. delay) f
  let schedule_at t ~at f = Wheel.push t.wheel ~at f

  let fire t =
    let f = Wheel.pop_fire t.wheel ~into:t.now in
    t.processed <- t.processed + 1;
    f ()

  let run ?until t =
    (match until with
    | None -> while not (Wheel.is_empty t.wheel) do fire t done
    | Some limit ->
      while (not (Wheel.is_empty t.wheel)) && Wheel.next_time t.wheel <= limit do
        fire t
      done);
    match until with Some limit when !(t.now) < limit -> t.now := limit | _ -> ()

  let pending t = Wheel.length t.wheel
  let events_processed t = t.processed
end

let reused = (module Reused_wheel : ENGINE)

(* Where a scheduled event lands: [Delay d] is [now + d]; [Cursor (k,
   frac)] is [k] buckets past the open bucket's successor (the wheel's
   cursor at 1 µs granularity) plus [frac] — the window edges 2047 /
   2048 / 2049, the level-1 and level-2 spans 2^22 and 2^33.  Delays of
   0 and sub-bucket fractions land in the batch being popped. *)
type target = Delay of float | Cursor of int * float

type stream = {
  prefill : float list;  (* 1 to 64 initial events *)
  actions : target list array;  (* successors of the i-th fired event *)
  checkpoints : (float * target list) list;
      (* [run ~until], then schedule these from the new clock *)
}

let at_of now = function
  | Delay d -> now +. d
  | Cursor (k, frac) -> Float.of_int (int_of_float now + 1 + k) +. frac

let max_pending = 64

exception Runaway

(* Fire a stream and log every event as [(time bits, tag)], every
   checkpoint as [(clock bits, -pending)].  No engine may fire more
   handlers than the stream schedules: one that refires cells raises
   [Runaway] instead of spinning. *)
let fire_stream (module E : ENGINE) st =
  let sim = E.create () in
  let log = ref [] in
  let next_tag = ref 0 and fired = ref 0 in
  let most =
    List.length st.prefill + (2 * Array.length st.actions)
    + List.fold_left (fun n (_, injected) -> n + List.length injected) 0 st.checkpoints
  in
  let rec schedule target =
    if E.pending sim < max_pending then begin
      let tag = !next_tag in
      incr next_tag;
      E.schedule_at sim ~at:(at_of (E.now sim) target) (handler tag)
    end
  and handler tag () =
    log := (Int64.bits_of_float (E.now sim), tag) :: !log;
    if !fired >= most then raise Runaway;
    let i = !fired in
    incr fired;
    if i < Array.length st.actions then List.iter schedule st.actions.(i)
  in
  List.iter (fun at -> schedule (Delay at)) st.prefill;
  List.iter
    (fun (limit, injected) ->
      E.run ~until:limit sim;
      log := (Int64.bits_of_float (E.now sim), -E.pending sim) :: !log;
      List.iter schedule injected)
    st.checkpoints;
  E.run sim;
  List.rev !log

let mean_gap_us =
  QCheck.Gen.(
    frequency
      [
        (1, return 0.0);
        (3, oneofl [ 0.5; 1.0; 367.0; 2048.0; 5_000.0; 50_000.0 ]);
        (3, float_range 0.0 50_000.0);
      ])

let gen_stream =
  let open QCheck.Gen in
  let edge =
    oneof
      [
        map2
          (fun k frac -> Cursor (k, frac))
          (oneofl [ 0; 2046; 2047; 2048; 2049; 1 lsl 22; 1 lsl 33 ])
          (oneofl [ 0.0; 0.5 ]);
        map (fun d -> Delay d) (oneofl [ 0.0; 0.25; 2047.0; 2048.0; 2049.0 ]);
      ]
  in
  mean_gap_us >>= fun mean ->
  let gap =
    map (fun u -> Delay (-.mean *. log (1.0 -. u))) (float_bound_exclusive 1.0)
  in
  let target = frequency [ (8, gap); (1, edge) ] in
  let successors =
    frequency
      [ (6, map (fun t -> [ t ]) target); (1, return []); (2, list_repeat 2 target) ]
  in
  let horizon = 600.0 *. Float.max 1.0 mean in
  map3
    (fun prefill actions checkpoints ->
      {
        prefill;
        actions = Array.of_list actions;
        checkpoints = List.sort (fun (a, _) (b, _) -> Float.compare a b) checkpoints;
      })
    (list_size (int_range 1 max_pending) (float_range 0.0 (4.0 *. Float.max 1.0 mean)))
    (list_size (int_range 0 600) successors)
    (list_size (int_range 0 4)
       (pair (float_range 0.0 horizon) (list_size (int_range 0 3) target)))

let prop_sparse_streams =
  QCheck.Test.make ~name:"sparse and edge-case streams match the heap" ~count:300
    (QCheck.make gen_stream) (fun st ->
      let h = fire_stream heap st in
      h = fire_stream wheel st && h = fire_stream reused st)

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
          QCheck_alcotest.to_alcotest prop_sparse_streams;
        ] );
      ( "sysim",
        [
          Alcotest.test_case "open loop bit-identical" `Quick test_sysim_open_loop;
          Alcotest.test_case "fault plan bit-identical" `Quick test_sysim_faults;
          Alcotest.test_case "serving bit-identical" `Quick test_sysim_serving;
        ] );
    ]
