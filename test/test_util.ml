(* Tests for the utility substrate: PRNG, statistics, priority queue,
   LRU, union-find and table rendering. *)

module Rng = Mlv_util.Rng
module Stats = Mlv_util.Stats
module Stats_oracle = Mlv_oracle.Stats_oracle
module Pqueue = Mlv_oracle.Pqueue
module Lru = Mlv_util.Lru
module Wheel = Mlv_util.Timing_wheel
module Union_find = Mlv_util.Union_find
module Table = Mlv_util.Table

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 32 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "different streams" true (xs <> ys)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 4" true (Float.abs (mean -. 4.0) < 0.2)

let test_rng_gaussian_moments () =
  let rng = Rng.create 13 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Rng.gaussian rng ~mu:2.0 ~sigma:3.0) in
  let mean = Stats.mean xs in
  let sd = Stats.stddev xs in
  Alcotest.(check bool) "mu ~ 2" true (Float.abs (mean -. 2.0) < 0.1);
  Alcotest.(check bool) "sigma ~ 3" true (Float.abs (sd -. 3.0) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 17 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

let test_rng_choose () =
  let rng = Rng.create 19 in
  for _ = 1 to 100 do
    let v = Rng.choose rng [ 1; 2; 3 ] in
    Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ])
  done

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.mean [])

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  (* population stddev: variance = (4 + 0 + 4) / 3 *)
  Alcotest.(check (float 1e-6)) "known" (sqrt (8.0 /. 3.0)) (Stats.stddev [ 1.0; 3.0; 5.0 ])

(* Regression for the single-pass rewrites: [mean] must stay
   bit-identical to the old sum-then-length fold (it feeds the system
   simulation's deterministic digests), and Welford's [stddev] must
   match a two-pass reference within rounding on an order-sensitive
   sample mixing magnitudes. *)
let test_stats_single_pass_exact () =
  let xs = [ 1e12; 3.25; -7.5; 1e-3; 42.0; -1e12; 0.125; 9.75 ] in
  let two_pass_mean l =
    List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  (* exact equality, not a tolerance: same adds in the same order *)
  Alcotest.(check bool) "mean bit-identical to fold" true
    (Stats.mean xs = two_pass_mean xs);
  let two_pass_stddev l =
    let m = two_pass_mean l in
    let ss = List.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0.0 l in
    sqrt (ss /. float_of_int (List.length l))
  in
  let ys = [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  Alcotest.(check (float 1e-9)) "welford known case" 2.0 (Stats.stddev ys);
  Alcotest.(check (float 1e-6)) "welford matches two-pass"
    (two_pass_stddev ys) (Stats.stddev ys)

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.percentile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p50" 3.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Stats.percentile 100.0 xs);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Stats.percentile 25.0 xs)

let test_stats_percentile_nan () =
  Alcotest.check_raises "NaN sample" (Invalid_argument "Stats.percentile: NaN sample")
    (fun () -> ignore (Stats.percentile 50.0 [ 1.0; Float.nan; 3.0 ]))

(* [percentile] and [percentile_many] against the
   [Array.sort Float.compare] versions they replaced
   (test/oracle/stats_oracle.ml), on samples full of duplicates,
   negatives, signed zeros and infinities, down to length 1.  Results
   match to the bit — NaN from interpolating across opposite
   infinities included — and empty or NaN inputs raise the same
   [Invalid_argument].  Inputs with a -0.0 take the full sort, so
   -0.0 is drawn rarely (1 sample in 200), half the short inputs (2
   to 300 samples) are drawn without it, and most long ones (1,000 to
   3,000 samples, some drawn from a dozen values, some sorted or
   reverse-sorted) carry none: most inputs reach the selection. *)
let gen_sample_no_neg_zero =
  QCheck.Gen.(
    frequency
      [
        (4, map float_of_int (int_range (-5) 5));
        (4, float_range (-1e6) 1e6);
        (1, oneofl [ 0.0; infinity; neg_infinity; Float.min_float; 1e300 ]);
        (1, oneofl [ Float.max_float; -.Float.max_float; 0.5; -0.5 ]);
      ])

let gen_sample =
  QCheck.Gen.(frequency [ (199, gen_sample_no_neg_zero); (1, return (-0.0)) ])

let gen_long_sample =
  QCheck.Gen.(
    let size = int_range 1_000 3_000 in
    frequency
      [
        (3, list_size size gen_sample_no_neg_zero);
        (3, list_size size (map float_of_int (int_range (-6) 6)));
        (2, map (List.sort Float.compare) (list_size size gen_sample_no_neg_zero));
        ( 2,
          map
            (fun xs -> List.rev (List.sort Float.compare xs))
            (list_size size gen_sample_no_neg_zero) );
        (1, map (fun xs -> -0.0 :: xs) (list_size size gen_sample_no_neg_zero));
      ])

let gen_percentile_case =
  QCheck.Gen.(
    let ps =
      list_size (int_range 1 6)
        (frequency [ (3, float_range 0.0 100.0); (2, oneofl [ 0.0; 50.0; 99.0; 100.0 ]) ])
    in
    let xs =
      frequency
        [
          (1, return []);
          (2, map (fun x -> [ x ]) gen_sample);
          (4, list_size (int_range 2 300) gen_sample);
          (4, list_size (int_range 2 300) gen_sample_no_neg_zero);
          (6, gen_long_sample);
          (1, map (fun xs -> Float.nan :: xs) (list_size (int_range 0 20) gen_sample));
        ]
    in
    pair ps xs)

let prop_percentile_matches_oracle =
  let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
  let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  QCheck.Test.make ~name:"percentile and percentile_many equal the oracle" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair (list float) (list float)) gen_percentile_case)
    (fun (ps, xs) ->
      let same new_ old =
        match (new_, old) with
        | Ok a, Ok b -> List.length a = List.length b && List.for_all2 same_bits a b
        | Error a, Error b -> String.equal a b
        | _ -> false
      in
      same
        (outcome (fun () -> List.map (fun p -> Stats.percentile p xs) ps))
        (outcome (fun () -> List.map (fun p -> Stats_oracle.percentile p xs) ps))
      && same
           (outcome (fun () -> Stats.percentile_many ps xs))
           (outcome (fun () -> Stats_oracle.percentile_many ps xs)))

let test_stats_median_interpolates () =
  Alcotest.(check (float 1e-9)) "even count" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 4.0 (Stats.geomean [ 2.0; 8.0 ]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_stats_acc () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 3.0; 1.0; 2.0 ];
  Alcotest.(check int) "count" 3 (Stats.Acc.count acc);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.Acc.mean acc);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Acc.min acc);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.Acc.max acc);
  Alcotest.(check (float 1e-9)) "sum" 6.0 (Stats.Acc.sum acc)

let test_stats_p2_small_exact () =
  let q = Stats.P2.create 0.5 in
  Alcotest.(check (float 1e-9)) "no samples" 0.0 (Stats.P2.quantile q);
  List.iter (Stats.P2.add q) [ 9.0; 1.0; 5.0 ];
  Alcotest.(check int) "count" 3 (Stats.P2.count q);
  (* Exact while fewer than five markers are filled. *)
  Alcotest.(check (float 1e-9)) "exact small-sample median" 5.0 (Stats.P2.quantile q)

let test_stats_p2_converges () =
  let rng = Rng.create 29 in
  let p50 = Stats.P2.create 0.5 and p99 = Stats.P2.create 0.99 in
  let xs = List.init 50_000 (fun _ -> Rng.float rng 1.0) in
  List.iter
    (fun x ->
      Stats.P2.add p50 x;
      Stats.P2.add p99 x)
    xs;
  let exact_p50 = Stats.percentile 50.0 xs in
  let exact_p99 = Stats.percentile 99.0 xs in
  Alcotest.(check int) "count" 50_000 (Stats.P2.count p50);
  Alcotest.(check bool) "p50 within 0.01 of exact" true
    (Float.abs (Stats.P2.quantile p50 -. exact_p50) < 0.01);
  Alcotest.(check bool) "p99 within 0.01 of exact" true
    (Float.abs (Stats.P2.quantile p99 -. exact_p99) < 0.01)

let test_stats_p2_invalid () =
  Alcotest.check_raises "p = 0" (Invalid_argument "Stats.P2.create: p outside (0,1)")
    (fun () -> ignore (Stats.P2.create 0.0));
  Alcotest.check_raises "p = 1" (Invalid_argument "Stats.P2.create: p outside (0,1)")
    (fun () -> ignore (Stats.P2.create 1.0))

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 3.0 "c";
  Pqueue.push q 1.0 "a";
  Pqueue.push q 2.0 "b";
  let pops = List.init 3 (fun _ -> Pqueue.pop q) in
  let values = List.map (function Some (_, v) -> v | None -> "?") pops in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] values;
  Alcotest.(check bool) "empty after" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  List.iter (fun v -> Pqueue.push q 1.0 v) [ "first"; "second"; "third" ];
  let values =
    List.init 3 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?")
  in
  Alcotest.(check (list string)) "insertion order" [ "first"; "second"; "third" ] values

let test_pqueue_interleaved () =
  let q = Pqueue.create () in
  Pqueue.push q 5.0 5;
  Pqueue.push q 1.0 1;
  (match Pqueue.pop q with
  | Some (p, v) ->
    Alcotest.(check (float 0.0)) "priority" 1.0 p;
    Alcotest.(check int) "value" 1 v
  | None -> Alcotest.fail "unexpected empty");
  Pqueue.push q 0.5 0;
  (match Pqueue.peek q with
  | Some (_, v) -> Alcotest.(check int) "peek" 0 v
  | None -> Alcotest.fail "unexpected empty");
  Alcotest.(check int) "length" 2 (Pqueue.length q)

let test_pqueue_stress_sorted () =
  let rng = Rng.create 23 in
  let q = Pqueue.create () in
  for _ = 1 to 2000 do
    Pqueue.push q (Rng.float rng 100.0) ()
  done;
  let prev = ref neg_infinity in
  let ok = ref true in
  let rec drain () =
    match Pqueue.pop q with
    | None -> ()
    | Some (p, ()) ->
      if p < !prev then ok := false;
      prev := p;
      drain ()
  in
  drain ();
  Alcotest.(check bool) "monotone" true !ok

(* Regression: [pop] used to leave the popped entry reachable in the
   backing array, pinning arbitrarily large closures until the slot was
   overwritten by a later push. *)
let test_pqueue_pop_releases () =
  let q = Pqueue.create () in
  let w = Weak.create 1 in
  let payload = ref (Array.make 1024 0) in
  Weak.set w 0 (Some !payload);
  Pqueue.push q 2.0 !payload;
  Pqueue.push q 1.0 (Array.make 1 0);
  payload := [||];
  ignore (Pqueue.pop q);
  (* lower-priority element pops second, so its slot is the vacated one *)
  ignore (Pqueue.pop q);
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected" true (Weak.get w 0 = None);
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

let test_pqueue_peek_prio () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty is infinity" true (Pqueue.peek_prio q = infinity);
  Pqueue.push q 2.0 "b";
  Pqueue.push q 1.0 "a";
  Alcotest.(check (float 0.0)) "min priority" 1.0 (Pqueue.peek_prio q);
  Alcotest.(check int) "does not remove" 2 (Pqueue.length q)

(* Regression: the queue must neither drop its backing array on drain
   (forcing every refill to reallocate from scratch) nor pin the
   peak-sized array forever.  The bounded shrink policy halves the
   array when occupancy falls to a quarter and keeps a 16-slot floor. *)
let test_pqueue_shrink_policy () =
  let q = Pqueue.create () in
  for i = 1 to 1024 do
    Pqueue.push q (float_of_int i) ()
  done;
  Alcotest.(check int) "peak capacity" 1024 (Pqueue.capacity q);
  let ok = ref true in
  while not (Pqueue.is_empty q) do
    ignore (Pqueue.pop q);
    (* Post-condition of the shrink policy after every pop: either at
       the floor, or occupancy is above a quarter of capacity. *)
    let cap = Pqueue.capacity q in
    if not (cap = 16 || Pqueue.length q * 4 > cap) then ok := false
  done;
  Alcotest.(check bool) "shrink tracks occupancy" true !ok;
  Alcotest.(check int) "drained queue keeps 16-slot floor" 16 (Pqueue.capacity q);
  (* [clear] follows the same policy. *)
  for i = 1 to 1024 do
    Pqueue.push q (float_of_int i) ()
  done;
  Pqueue.clear q;
  Alcotest.(check bool) "clear is empty" true (Pqueue.is_empty q);
  Alcotest.(check bool) "clear shrinks" true (Pqueue.capacity q < 1024);
  Pqueue.push q 1.0 ();
  Alcotest.(check bool) "usable after clear" true (Pqueue.pop q <> None)

(* Steady-state push/pop cycles must not churn the backing array: once
   warmed, capacity stays fixed and per-cycle allocation is just the
   entry records plus [pop]'s option/tuple — an array dropped on drain
   or reallocated per operation would show up as both a capacity change
   and a much larger allocation rate. *)
let test_pqueue_cycle_allocation () =
  let q = Pqueue.create () in
  let cycle () =
    for i = 1 to 64 do
      Pqueue.push q (float_of_int (i land 7)) 0
    done;
    for _ = 1 to 64 do
      ignore (Pqueue.pop q)
    done
  in
  cycle ();
  let cap = Pqueue.capacity q in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  let w0 = Gc.allocated_bytes () /. word_bytes in
  for _ = 1 to 100 do
    cycle ()
  done;
  let w1 = Gc.allocated_bytes () /. word_bytes in
  let words_per_cycle = (w1 -. w0) /. 100.0 in
  Alcotest.(check int) "capacity steady across cycles" cap (Pqueue.capacity q);
  (* 64 ops/cycle at ~11 words each (entry + boxed priority + pop's
     Some tuple) is ~700 words; array churn would add hundreds more. *)
  Alcotest.(check bool) "no per-cycle array churn" true (words_per_cycle < 1500.0)

let test_union_find_basic () =
  let uf = Union_find.create 6 in
  ignore (Union_find.union uf 0 1);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "same 0 1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same 0 2" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "same 0 3" true (Union_find.same uf 0 3)

let test_union_find_groups () =
  let uf = Union_find.create 5 in
  ignore (Union_find.union uf 0 4);
  ignore (Union_find.union uf 1 2);
  let groups = Union_find.groups uf |> List.map snd in
  Alcotest.(check (list (list int))) "groups" [ [ 0; 4 ]; [ 1; 2 ]; [ 3 ] ] groups

(* ---------------- timing wheel ---------------- *)

(* Randomized differential against the binary heap over a mix of exact
   ties, in-wheel times and far-future (level-2 / overflow) jumps, with
   an interleaved push phase after the clock has advanced. *)
let test_wheel_differential () =
  let rng = Rng.create 31 in
  let w = Wheel.create () and q = Pqueue.create () in
  let wlog = ref [] and qlog = ref [] in
  let draw () =
    let r = Rng.float rng 1.0 in
    if r < 0.4 then Float.of_int (Rng.int rng 50) (* exact ties *)
    else if r < 0.8 then Rng.float rng 10_000.0 (* levels 0-1 *)
    else Rng.float rng 1e10 (* level 2 and overflow *)
  in
  let push_both at tag =
    Wheel.push w ~at (fun () -> wlog := (at, tag) :: !wlog);
    Pqueue.push q at (fun () -> qlog := (at, tag) :: !qlog)
  in
  for i = 0 to 2999 do
    push_both (draw ()) i
  done;
  let now = ref 0.0 in
  let pop_both () =
    (match Wheel.pop w with
    | Some (t, f) ->
      now := t;
      f ()
    | None -> Alcotest.fail "wheel empty early");
    match Pqueue.pop q with
    | Some (_, f) -> f ()
    | None -> Alcotest.fail "heap empty early"
  in
  for _ = 1 to 1500 do
    pop_both ()
  done;
  for i = 3000 to 4999 do
    push_both (!now +. draw ()) i
  done;
  while not (Wheel.is_empty w) do
    pop_both ()
  done;
  Alcotest.(check bool) "heap drained too" true (Pqueue.is_empty q);
  Alcotest.(check (list (pair (float 0.0) int)))
    "identical pop order" (List.rev !qlog) (List.rev !wlog)

let test_wheel_far_future_rebase () =
  let w = Wheel.create () in
  let log = ref [] in
  let push at tag = Wheel.push w ~at (fun () -> log := tag :: !log) in
  (* Everything lands beyond the wheel horizon on the overflow list;
     the first pop must rebase onto the overflow minimum and ordering
     (including FIFO on the tie) must survive the refill. *)
  push 1e12 0;
  push 9.0e11 1;
  push 1e12 2;
  Alcotest.(check bool) "next_time sees overflow min" true
    (Wheel.next_time w = 9.0e11);
  let order =
    List.init 3 (fun _ ->
        match Wheel.pop w with
        | Some (_, f) ->
          f ();
          List.hd !log
        | None -> Alcotest.fail "empty")
  in
  Alcotest.(check (list int)) "overflow pops in order" [ 1; 0; 2 ] order;
  (* A second far-future round after the clock advanced: rebase again. *)
  push 2.0e12 3;
  push 1.5e12 4;
  (match Wheel.pop w with
  | Some (t, _) -> Alcotest.(check bool) "second rebase min" true (t = 1.5e12)
  | None -> Alcotest.fail "empty");
  Alcotest.(check int) "one left" 1 (Wheel.length w)

let test_wheel_clear_reuse () =
  let w = Wheel.create () in
  for i = 1 to 500 do
    Wheel.push w ~at:(float_of_int (i * 7)) (fun () -> ())
  done;
  Alcotest.(check int) "length" 500 (Wheel.length w);
  Wheel.clear w;
  Alcotest.(check bool) "empty after clear" true (Wheel.is_empty w);
  Alcotest.(check bool) "next_time infinity" true (Wheel.next_time w = infinity);
  Alcotest.(check bool) "pop None" true (Wheel.pop w = None);
  (* Reuse after clear; all four times share bucket arithmetic but pop
     in exact time order — granularity never affects ordering. *)
  let log = ref [] in
  List.iter
    (fun (at, tag) -> Wheel.push w ~at (fun () -> log := tag :: !log))
    [ (5.25, 0); (5.5, 1); (5.125, 2); (0.0, 3) ];
  while not (Wheel.is_empty w) do
    match Wheel.pop w with Some (_, f) -> f () | None -> ()
  done;
  Alcotest.(check (list int)) "exact sub-bucket order" [ 3; 2; 0; 1 ] (List.rev !log)

let test_wheel_granularity_only_perf () =
  (* Coarse and fine bucket widths must produce the identical pop
     sequence: the granularity is a performance knob only. *)
  let run gran =
    let w = Wheel.create ~granularity_us:gran () in
    let rng = Rng.create 37 in
    let log = ref [] in
    for i = 0 to 999 do
      let at = Rng.float rng 5_000.0 in
      Wheel.push w ~at (fun () -> log := (at, i) :: !log)
    done;
    let rec drain () =
      match Wheel.pop w with
      | Some (_, f) ->
        f ();
        drain ()
      | None -> ()
    in
    drain ();
    List.rev !log
  in
  let fine = run 0.25 and coarse = run 512.0 in
  Alcotest.(check (list (pair (float 0.0) int))) "granularity never reorders" fine
    coarse

let test_wheel_pop_fire () =
  let w = Wheel.create () in
  let hit = ref 0 in
  Wheel.push w ~at:3.5 (fun () -> hit := 1);
  let into = ref 0.0 in
  let f = Wheel.pop_fire w ~into in
  Alcotest.(check (float 0.0)) "timestamp stored" 3.5 !into;
  f ();
  Alcotest.(check int) "thunk fired" 1 !hit;
  Alcotest.(check bool) "empty" true (Wheel.is_empty w)

let test_wheel_validation () =
  let w = Wheel.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Timing_wheel.push: time must be non-negative (not NaN)")
    (fun () -> Wheel.push w ~at:(-1.0) (fun () -> ()));
  Alcotest.check_raises "NaN time"
    (Invalid_argument "Timing_wheel.push: time must be non-negative (not NaN)")
    (fun () -> Wheel.push w ~at:Float.nan (fun () -> ()));
  Alcotest.check_raises "pop_fire on empty"
    (Invalid_argument "Timing_wheel.pop_fire: empty wheel") (fun () ->
      let _f : unit -> unit = Wheel.pop_fire w ~into:(ref 0.0) in
      ());
  Alcotest.check_raises "non-positive granularity"
    (Invalid_argument "Timing_wheel.create: granularity must be positive")
    (fun () -> ignore (Wheel.create ~granularity_us:0.0 ()))

let test_table_render () =
  let t = Table.create ~title:"T" [ "name"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && s.[0] = 'T');
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "contains row" true (contains s "bb")

let test_table_arity () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_fmt () =
  Alcotest.(check string) "pct" "7.8%" (Table.fmt_pct 0.078);
  Alcotest.(check string) "float trim" "1.5" (Table.fmt_float ~digits:4 1.5)

(* The LRU against a stamp-scan model: every entry carries the tick of
   its last use, and inserting into a full cache evicts the smallest
   stamp.  Over a seeded stream of finds and puts on a 4-entry cache,
   the two return the same values, evict at the same puts, count the
   same hits, misses and evictions, and order their keys alike. *)
let test_lru_matches_stamp_model () =
  let rng = Rng.create 7 and lru = Lru.create 4 in
  let model = Hashtbl.create 8 and tick = ref 0 in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let touch k v =
    incr tick;
    Hashtbl.replace model k (v, !tick)
  in
  for i = 1 to 2000 do
    let k = Rng.int rng 8 in
    if Rng.bool rng then begin
      let want = Option.map fst (Hashtbl.find_opt model k) in
      (match want with
      | Some v ->
        incr hits;
        touch k v
      | None -> incr misses);
      Alcotest.(check (option int)) "find" want (Lru.find lru k)
    end
    else begin
      let evicts = (not (Hashtbl.mem model k)) && Hashtbl.length model >= 4 in
      if evicts then begin
        let oldest k (_, s) (bk, bs) = if s < bs then (k, s) else (bk, bs) in
        Hashtbl.remove model (fst (Hashtbl.fold oldest model (-1, max_int)));
        incr evictions
      end;
      touch k i;
      Alcotest.(check bool) "put evicts" evicts (Lru.put lru k i)
    end
  done;
  Alcotest.(check (list int)) "counts" [ !hits; !misses; !evictions ]
    [ Lru.hits lru; Lru.misses lru; Lru.evictions lru ];
  let by_recency =
    Hashtbl.fold (fun k (_, s) acc -> (s, k) :: acc) model []
    |> List.sort (fun a b -> compare b a)
    |> List.map snd
  in
  Alcotest.(check (list int)) "keys most recent first" by_recency (Lru.keys lru);
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Lru.create: capacity must be >= 1")
    (fun () -> ignore (Lru.create 0))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "choose membership" `Quick test_rng_choose;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "single-pass exactness" `Quick
            test_stats_single_pass_exact;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile rejects NaN" `Quick test_stats_percentile_nan;
          QCheck_alcotest.to_alcotest prop_percentile_matches_oracle;
          Alcotest.test_case "median interpolation" `Quick test_stats_median_interpolates;
          Alcotest.test_case "geomean" `Quick test_stats_geomean;
          Alcotest.test_case "streaming accumulator" `Quick test_stats_acc;
          Alcotest.test_case "P2 small-sample exact" `Quick test_stats_p2_small_exact;
          Alcotest.test_case "P2 converges" `Quick test_stats_p2_converges;
          Alcotest.test_case "P2 rejects bad p" `Quick test_stats_p2_invalid;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "pop order" `Quick test_pqueue_order;
          Alcotest.test_case "FIFO on ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "interleaved ops" `Quick test_pqueue_interleaved;
          Alcotest.test_case "stress sorted" `Quick test_pqueue_stress_sorted;
          Alcotest.test_case "pop releases payload" `Quick test_pqueue_pop_releases;
          Alcotest.test_case "peek_prio" `Quick test_pqueue_peek_prio;
          Alcotest.test_case "bounded shrink policy" `Quick test_pqueue_shrink_policy;
          Alcotest.test_case "steady-state cycles" `Quick test_pqueue_cycle_allocation;
        ] );
      ( "lru",
        [ Alcotest.test_case "matches stamp model" `Quick test_lru_matches_stamp_model ]
      );
      ( "timing_wheel",
        [
          Alcotest.test_case "differential vs heap" `Quick test_wheel_differential;
          Alcotest.test_case "far-future rebase" `Quick test_wheel_far_future_rebase;
          Alcotest.test_case "clear and reuse" `Quick test_wheel_clear_reuse;
          Alcotest.test_case "granularity is perf-only" `Quick
            test_wheel_granularity_only_perf;
          Alcotest.test_case "pop_fire" `Quick test_wheel_pop_fire;
          Alcotest.test_case "validation" `Quick test_wheel_validation;
        ] );
      ( "union_find",
        [
          Alcotest.test_case "basic union/same" `Quick test_union_find_basic;
          Alcotest.test_case "groups" `Quick test_union_find_groups;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity check" `Quick test_table_arity;
          Alcotest.test_case "formatters" `Quick test_table_fmt;
        ] );
    ]
