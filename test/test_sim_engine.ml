(* Differential suite for the discrete-event engine: the array heap
   ([Sim]) must fire every event in the same order at the same time as
   the binary-heap oracle ([Mlv_oracle.Heap_sim]), including FIFO
   tie-breaks, on adversarial streams, and an arrival stream
   ([Sim.schedule_stream]) must fire exactly as scheduling every
   element up front does.  End-to-end sysim results (open loop, fault
   plans, elastic serving, a linger timer tied with an arrival) are
   pinned to digests recorded while every arrival was queued up
   front.  The microbenchmark (bench/sim.ml) asserts the same order
   contract over a million events; this suite pins it in the test
   tier with small, fast cases. *)

module Sim = Mlv_cluster.Sim
module Heap_sim = Mlv_oracle.Heap_sim
module Fault_plan = Mlv_cluster.Fault_plan
module Sysim = Mlv_sysim.Sysim
module Runtime = Mlv_core.Runtime
module Genset = Mlv_workload.Genset
module Rng = Mlv_util.Rng
module Deepbench = Mlv_workload.Deepbench

(* The registry build compiles ten accelerator instances; share it. *)
let registry = lazy (Sysim.build_registry ())

(* ---------------- Sim-level ordering ---------------- *)

module type ENGINE = Mlv_oracle.Engine.S

let heap = (module Heap_sim : ENGINE)
let sim = (module Sim : ENGINE)

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
  let w = fire_order sim spec in
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
  (* The heap's (time, seq) key must yield FIFO for the ties itself,
     not just agree with the oracle. *)
  let w = fire_order sim spec in
  let ties = List.filter_map (fun (t, g) -> if t = 5.0 then Some g else None) w in
  Alcotest.(check (list int)) "FIFO among equal times" [ 0; 2; 4; 7 ] ties

let test_random_stream_differential () =
  (* A hold model over a deliberately nasty time distribution:
     clustered times (exact ties from the coarse quantisation) plus
     occasional far-future jumps. *)
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
          else Rng.float rng 40_000_000.0
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
  let h = spec heap and w = spec sim in
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
  let h = go heap and w = go sim in
  let (hn, hf, hp), hend, hev = h and (wn, wf, wp), wend, wev = w in
  Alcotest.(check (float 0.0)) "clock at limit" hn wn;
  Alcotest.(check (list (float 0.0))) "fired before limit" hf wf;
  Alcotest.(check int) "pending after limit" hp wp;
  Alcotest.(check (float 0.0)) "final clock" hend wend;
  Alcotest.(check int) "events processed" hev wev

(* ---------------- Sparse and edge-case streams ---------------- *)

(* Where a scheduled event lands: [Delay d] is [now + d]; [Cursor (k,
   frac)] is [k] whole microseconds past the one after [now], plus
   [frac]: near ties, power-of-two edges (2047 / 2048 / 2049, 2^22,
   2^33) and far jumps.  Delays of 0 tie with the event being fired. *)
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
      h = fire_stream sim st)

(* ---------------- Arrival streams ---------------- *)

(* [Heap_sim.schedule_stream] schedules every element up front, so it
   is the reference for [Sim.schedule_stream], which queues one
   element at a time under sequence numbers reserved at the call.
   [At_arrival k] lands exactly on the [k]-th (cyclically) stream time
   not before the clock: an event tied with an arrival that is not
   queued yet, which fires after it only if the arrival keeps its
   reserved number. *)
type arrival_target = After of float | At_arrival of int

type arrival_case = {
  arrivals : float list;  (* sorted, mostly on a coarse grid: many ties *)
  before : arrival_target list;  (* queued before the stream *)
  after : arrival_target list;  (* queued after it, before the run *)
  successors : arrival_target list array;  (* of the i-th fired event *)
}

let fire_arrivals (module E : ENGINE) c =
  let sim = E.create () in
  let log = ref [] and next_tag = ref 0 and fired = ref 0 in
  let at_of = function
    | After d -> E.now sim +. d
    | At_arrival k -> (
      match List.filter (fun a -> a >= E.now sim) c.arrivals with
      | [] -> E.now sim
      | ahead -> List.nth ahead (k mod List.length ahead))
  in
  let rec schedule target =
    let tag = !next_tag in
    incr next_tag;
    E.schedule_at sim ~at:(at_of target) (fun () -> fire tag)
  and fire tag =
    log := (Int64.bits_of_float (E.now sim), tag) :: !log;
    let i = !fired in
    incr fired;
    if i < Array.length c.successors then List.iter schedule c.successors.(i)
  in
  List.iter schedule c.before;
  E.schedule_stream sim ~at:snd
    (fun (k, _) -> fire (-1 - k))
    (List.mapi (fun k a -> (k, a)) c.arrivals);
  List.iter schedule c.after;
  E.run sim;
  List.rev !log

let gen_arrival_case =
  let open QCheck.Gen in
  let time =
    frequency
      [
        (3, map (fun k -> 50.0 *. Float.of_int k) (int_bound 8));
        (1, float_bound_inclusive 400.0);
      ]
  in
  let target =
    frequency
      [
        (3, map (fun k -> At_arrival k) (int_bound 4));
        (1, return (After 0.0));
        (1, map (fun d -> After d) (oneof [ return 50.0; float_bound_inclusive 200.0 ]));
      ]
  in
  let targets n = list_size (int_bound n) target in
  map
    (fun (arrivals, before, after, successors) ->
      {
        arrivals = List.sort Float.compare arrivals;
        before;
        after;
        successors = Array.of_list successors;
      })
    (quad
       (list_size (int_bound 24) time)
       (targets 4) (targets 4)
       (list_size (int_bound 40) (targets 2)))

let prop_arrival_streams =
  QCheck.Test.make ~name:"arrival streams fire as if scheduled up front" ~count:500
    (QCheck.make gen_arrival_case) (fun c -> fire_arrivals heap c = fire_arrivals sim c)

(* The checks [Sim] makes on every time it is given: a NaN key would
   silently break the heap order, and a time in the past cannot fire. *)
let test_input_validation () =
  let s = Sim.create () in
  let past = Invalid_argument "Sim.schedule_at: time in the past or NaN" in
  Alcotest.check_raises "negative time" past (fun () ->
      Sim.schedule_at s ~at:(-1.0) ignore);
  Alcotest.check_raises "NaN time" past (fun () ->
      Sim.schedule_at s ~at:Float.nan ignore);
  let delay = Invalid_argument "Sim.schedule: negative or NaN delay" in
  Alcotest.check_raises "negative delay" delay (fun () ->
      Sim.schedule s ~delay:(-1.0) ignore);
  Alcotest.check_raises "NaN delay" delay (fun () ->
      Sim.schedule s ~delay:Float.nan ignore);
  let stream =
    Invalid_argument "Sim.schedule_stream: time in the past, NaN or out of order"
  in
  List.iter
    (fun (name, times) ->
      Alcotest.check_raises name stream (fun () ->
          Sim.schedule_stream s ~at:Fun.id ignore times))
    [
      ("NaN in a stream", [ 1.0; Float.nan; 3.0 ]);
      ("negative in a stream", [ -1.0; 2.0 ]);
      ("stream out of order", [ 1.0; 3.0; 2.0 ]);
    ];
  Alcotest.(check int) "a refused stream queues nothing" 0 (Sim.pending s);
  Sim.schedule_at s ~at:5.0 ignore;
  Sim.run s;
  Alcotest.check_raises "time before now" past (fun () ->
      Sim.schedule_at s ~at:4.0 ignore);
  Alcotest.check_raises "stream before now" stream (fun () ->
      Sim.schedule_stream s ~at:Fun.id ignore [ 4.0 ]);
  (* A replay with a NaN arrival is refused before any event fires. *)
  let fired = Mlv_obs.Obs.Counter.get "sim.events_processed" in
  let fired_before = Mlv_obs.Obs.Counter.value fired in
  let cfg = Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6) in
  let poisoned =
    List.mapi
      (fun i (t : Genset.task) ->
        if i = 1 then { t with Genset.arrival_us = Float.nan } else t)
      (Sysim.workload { cfg with Sysim.tasks = 3 })
  in
  Alcotest.check_raises "NaN arrival in a replay" stream (fun () ->
      ignore
        (Sysim.run ~registry:(Lazy.force registry)
           { cfg with Sysim.replay = Some poisoned }));
  Alcotest.(check int) "no event fired" fired_before (Mlv_obs.Obs.Counter.value fired)

(* ---------------- Sysim end-to-end ---------------- *)

(* Whole-run pins: the MD5 of each result, scrubbed of the wall clock
   and marshalled without sharing, so every counter, every float and
   the completion-order latency list (an order-sensitive fingerprint
   of the whole event sequence) take part.  The pins were first
   recorded while two engines were still selectable inside
   [Sysim.run], with both producing the identical result; they were
   re-recorded when the open loop became the dispatch loop's FIFO
   policy, with every model field unchanged (only the open runs'
   [batches] and [scale_ups] and the serving run's [mean_wait_us], now
   taken at completion, moved), and held when arrivals began to stream
   into the array heap. *)
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

(* A batch opened at 0 lingers until 300 µs, the time of the fourth
   arrival.  Scheduled up front, that arrival holds a smaller sequence
   number than the linger timer, so it joins the batch first and fills
   it: two batches of four.  An arrival that took a fresh number when
   it was queued would lose the tie, and the timer would flush a batch
   of three (three batches). *)
let test_sysim_linger_tie () =
  let point = { Deepbench.kind = Mlv_isa.Codegen.Lstm; hidden = 256; timesteps = 10 } in
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  let tasks =
    List.init 8 (fun task_id ->
        {
          Genset.task_id;
          point;
          model_class = Mlv_workload.Sizes.S;
          arrival_us = 100.0 *. Float.of_int task_id;
          tenant = "-";
        })
  in
  let cfg =
    {
      cfg with
      Sysim.tasks = 8;
      replay = Some tasks;
      serving =
        Some
          {
            Sysim.default_serving with
            Sysim.batch = Mlv_sched.Batcher.config ~max_batch:4 ~max_linger_us:300.0 ();
            autoscale = None;
          };
    }
  in
  let r = Sysim.run ~registry:(Lazy.force registry) cfg in
  Alcotest.(check int) "batches" 2 r.Sysim.batches;
  check_pin "linger tie" cfg ~pin:"8766a81ee6092457ebc72a9a372326d2"

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
          QCheck_alcotest.to_alcotest prop_arrival_streams;
          Alcotest.test_case "input validation" `Quick test_input_validation;
        ] );
      ( "sysim",
        [
          Alcotest.test_case "open loop bit-identical" `Quick test_sysim_open_loop;
          Alcotest.test_case "fault plan bit-identical" `Quick test_sysim_faults;
          Alcotest.test_case "serving bit-identical" `Quick test_sysim_serving;
          Alcotest.test_case "linger tied with an arrival" `Quick test_sysim_linger_tie;
        ] );
    ]
