(* Tests for the serving front door (lib/serve): client sessions with
   sticky affinity and in-order delivery, the compiled-mapping LRU,
   the textual trace format, the diurnal arrival model, and the
   sysim integration invariants — a disabled front door must be
   bit-invisible, and the shape-signature key space must separate
   every distinct compiled shape in the benchmark registry.  The
   sysim cases also run the 800-task flash-crowd workload whose
   figures EXPERIMENTS.md quotes: trace round-trip and replay, cache
   hit rate and economics, session accounting and expiry, and
   reactive vs predictive autoscaling, each figure pinned. *)

module Session = Mlv_serve.Session
module Mapcache = Mlv_serve.Mapcache
module Trace_file = Mlv_serve.Trace_file
module Genset = Mlv_workload.Genset
module Mapdb = Mlv_core.Mapdb
module Runtime = Mlv_core.Runtime
module Sysim = Mlv_sysim.Sysim
module Autoscaler = Mlv_sched.Autoscaler
module Rng = Mlv_util.Rng

let raises_invalid f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ---------------- sessions ---------------- *)

let test_session_touch_and_expiry () =
  let t = Session.create (Session.config ~idle_timeout_us:1_000.0 ()) in
  let a = Session.touch t ~now_us:0.0 "alice" in
  let a' = Session.touch t ~now_us:400.0 "alice" in
  Alcotest.(check bool) "same session on repeat touch" true (a == a');
  let _b = Session.touch t ~now_us:500.0 "bob" in
  Alcotest.(check int) "two live sessions" 2 (Session.active t);
  Alcotest.(check int) "two opened" 2 (Session.opened t);
  (* alice last touched at 400, bob at 500: at 1450 only alice idles out *)
  Alcotest.(check (list string)) "alice expires first" [ "alice" ]
    (Session.expire t ~now_us:1_450.0);
  Alcotest.(check int) "one survivor" 1 (Session.active t);
  Alcotest.(check (list string)) "bob expires later" [ "bob" ]
    (Session.expire t ~now_us:2_000.0);
  Alcotest.(check int) "expired counter" 2 (Session.expired t);
  (* touching an expired key reopens *)
  let a2 = Session.touch t ~now_us:3_000.0 "alice" in
  Alcotest.(check bool) "reopened, not resurrected" true (not (a == a2));
  Alcotest.(check int) "reopen counts" 3 (Session.opened t)

let test_session_outstanding_blocks_expiry () =
  let t = Session.create (Session.config ~idle_timeout_us:1_000.0 ()) in
  let s = Session.touch t ~now_us:0.0 "k" in
  let seq = Session.submit s in
  Alcotest.(check int) "one outstanding" 1 (Session.outstanding s);
  Alcotest.(check (list string)) "outstanding request pins the session" []
    (Session.expire t ~now_us:10_000.0);
  Session.skip t s ~seq ~now_us:10_500.0;
  Alcotest.(check int) "skip resolves it" 0 (Session.outstanding s);
  Alcotest.(check (list string)) "now reapable" [ "k" ]
    (Session.expire t ~now_us:12_000.0)

let test_session_in_order_delivery () =
  let t = Session.create (Session.config ()) in
  let s = Session.touch t ~now_us:0.0 "k" in
  let s0 = Session.submit s
  and s1 = Session.submit s
  and s2 = Session.submit s in
  let log = ref [] in
  let deliver tag ~now_us = log := (tag, now_us) :: !log in
  (* seq 2 finishes first: held, nothing delivered *)
  Session.complete t s ~seq:s2 ~now_us:30.0 (deliver 2);
  Alcotest.(check (list (pair int (float 1e-9)))) "overtaker held" [] (List.rev !log);
  Alcotest.(check int) "one held" 1 (Session.held t);
  (* seq 0 releases itself only *)
  Session.complete t s ~seq:s0 ~now_us:40.0 (deliver 0);
  Alcotest.(check (list (pair int (float 1e-9)))) "head released" [ (0, 40.0) ]
    (List.rev !log);
  (* seq 1 releases itself and the held seq 2, both stamped with the
     releasing event's clock *)
  Session.complete t s ~seq:s1 ~now_us:55.0 (deliver 1);
  Alcotest.(check (list (pair int (float 1e-9)))) "order restored"
    [ (0, 40.0); (1, 55.0); (2, 55.0) ]
    (List.rev !log);
  Alcotest.(check int) "stream drained" 0 (Session.outstanding s);
  raises_invalid (fun () ->
      Session.complete t s ~seq:s0 ~now_us:60.0 (deliver 99))

let test_session_skip_unblocks_stream () =
  let t = Session.create (Session.config ()) in
  let s = Session.touch t ~now_us:0.0 "k" in
  let s0 = Session.submit s
  and s1 = Session.submit s in
  let log = ref [] in
  Session.complete t s ~seq:s1 ~now_us:10.0 (fun ~now_us ->
      log := now_us :: !log);
  Alcotest.(check (list (float 1e-9))) "held behind the shed head" [] !log;
  (* the head was shed: skipping it must flush the held successor *)
  Session.skip t s ~seq:s0 ~now_us:25.0;
  Alcotest.(check (list (float 1e-9))) "released at the skip instant" [ 25.0 ]
    !log

let test_session_affinity () =
  let t = Session.create (Session.config ()) in
  let s = Session.touch t ~now_us:0.0 "k" in
  Alcotest.(check (option int)) "no affinity yet" None
    (Session.affinity s ~accel:"lstm");
  Session.set_affinity s ~accel:"lstm" ~replica:7;
  Session.set_affinity s ~accel:"gru" ~replica:3;
  Alcotest.(check (option int)) "per-accel affinity" (Some 7)
    (Session.affinity s ~accel:"lstm");
  Session.clear_affinity s ~accel:"lstm";
  Alcotest.(check (option int)) "cleared" None (Session.affinity s ~accel:"lstm");
  Alcotest.(check (option int)) "other accel untouched" (Some 3)
    (Session.affinity s ~accel:"gru");
  Session.note_sticky t true;
  Session.note_sticky t false;
  Session.note_sticky t true;
  Alcotest.(check (pair int int)) "sticky tallies" (2, 1)
    (Session.sticky_hits t, Session.sticky_misses t)

let test_session_config_validation () =
  raises_invalid (fun () -> Session.config ~idle_timeout_us:0.0 ());
  raises_invalid (fun () -> Session.config ~idle_timeout_us:(-5.0) ())

(* ---------------- mapping cache ---------------- *)

let test_mapcache_lru () =
  let c = Mapcache.create ~capacity:2 () in
  Alcotest.(check (option string)) "cold miss" None (Mapcache.find c "a");
  Mapcache.put c "a" "A";
  Mapcache.put c "b" "B";
  Alcotest.(check (option string)) "hit a" (Some "A") (Mapcache.find c "a");
  (* b is now least recently used; inserting c evicts it *)
  Mapcache.put c "c" "C";
  Alcotest.(check bool) "b evicted" false (Mapcache.mem c "b");
  Alcotest.(check bool) "a survived (recency refreshed by the hit)" true
    (Mapcache.mem c "a");
  Alcotest.(check int) "one eviction" 1 (Mapcache.evictions c);
  Alcotest.(check (list string)) "keys MRU first" [ "c"; "a" ] (Mapcache.keys c);
  Alcotest.(check int) "length tracks live entries" 2 (Mapcache.length c);
  ignore (Mapcache.find c "b");
  Alcotest.(check (pair int int)) "hit/miss tallies" (1, 2)
    (Mapcache.hits c, Mapcache.misses c);
  Alcotest.(check (float 1e-9)) "hit rate" (1.0 /. 3.0) (Mapcache.hit_rate c);
  raises_invalid (fun () -> Mapcache.create ~capacity:0 ())

let test_mapcache_overwrite_no_evict () =
  let c = Mapcache.create ~capacity:1 () in
  Mapcache.put c "k" 1;
  Mapcache.put c "k" 2;
  Alcotest.(check (option int)) "overwrite keeps one entry" (Some 2)
    (Mapcache.find c "k");
  Alcotest.(check int) "no eviction on overwrite" 0 (Mapcache.evictions c)

(* ---------------- trace format ---------------- *)

let diurnal =
  Genset.Diurnal
    {
      period_us = 32_000.0;
      trough_mean_us = 4_000.0;
      peak_mean_us = 1_000.0;
      flash_start_us = 8_000.0;
      flash_us = 6_000.0;
      flash_mean_us = 300.0;
    }

let registry = lazy (Sysim.build_registry ())
let run cfg = Sysim.run ~registry:(Lazy.force registry) cfg

(* The front-door workload of EXPERIMENTS.md: 800 single-inference
   S-class tasks (a handful of live shapes, so the trace is
   repeat-heavy and the arrival stream lands on few replica groups) on
   the diurnal cycle above, whose 32 ms period matches the predictive
   autoscaler's season (32 ticks of 1 ms).  Single inferences keep the
   flash absorbable by a fully scaled group. *)
let flash_cfg =
  let base =
    Sysim.default_config ~policy:Runtime.greedy
      ~composition:{ Genset.s = 1.0; m = 0.0; l = 0.0 }
  in
  {
    base with
    Sysim.seed = 42;
    tasks = 800;
    repeats_per_task = 1;
    arrival = diurnal;
    slo_multiplier = 4.0;
    serving = Some { Sysim.default_serving with Sysim.autoscale = None };
  }

let roundtrip tasks =
  match Trace_file.of_string (Trace_file.to_string tasks) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok parsed -> parsed

let test_trace_roundtrip_bit_exact () =
  List.iter
    (fun (label, tasks) ->
      let parsed = roundtrip tasks in
      Alcotest.(check bool) (label ^ ": structurally bit-exact") true (parsed = tasks);
      (* hex floats: arrival instants survive to the last bit *)
      List.iter2
        (fun a b ->
          if a.Genset.arrival_us <> b.Genset.arrival_us then
            Alcotest.failf "%s: arrival drifted: %h vs %h" label a.Genset.arrival_us
              b.Genset.arrival_us)
        tasks parsed)
    [
      ( "set 7, 200 tasks",
        Genset.generate_arrival ~rng:(Rng.create 11) ~composition:Genset.table1.(6)
          ~tasks:200 ~arrival:diurnal );
      ("flash workload", Sysim.workload flash_cfg);
    ]

let test_trace_rejects_malformed () =
  let bad s =
    match Trace_file.of_string s with
    | Ok _ -> Alcotest.failf "parsed malformed trace %S" s
    | Error _ -> ()
  in
  bad "";
  bad "0x1p+1 t lstm 64 10\n";
  (* header required *)
  bad "#mlv-trace v2\n";
  bad "#mlv-trace v1\n0x1p+1 t lstm 64\n";
  (* missing field *)
  bad "#mlv-trace v1\n0x1p+1 t lstm 0 10\n";
  (* non-positive dimension *)
  bad "#mlv-trace v1\n0x1p+3 t lstm 64 10\n0x1p+1 t lstm 64 10\n";
  (* decreasing arrivals *)
  match Trace_file.of_string "#mlv-trace v1\n# comment\n\n0x1p+1 t lstm 64 10\n" with
  | Ok [ t ] ->
    Alcotest.(check (float 1e-9)) "comments and blanks skipped" 2.0 t.Genset.arrival_us
  | Ok _ -> Alcotest.fail "expected one task"
  | Error e -> Alcotest.failf "valid trace rejected: %s" e

(* ---------------- diurnal arrivals ---------------- *)

let test_diurnal_validation () =
  let gen arrival () =
    Genset.generate_arrival ~rng:(Rng.create 1) ~composition:Genset.table1.(6)
      ~tasks:10 ~arrival
  in
  let d ~period ~trough ~peak ~fs ~fl ~fm =
    Genset.Diurnal
      {
        period_us = period;
        trough_mean_us = trough;
        peak_mean_us = peak;
        flash_start_us = fs;
        flash_us = fl;
        flash_mean_us = fm;
      }
  in
  raises_invalid (gen (d ~period:0.0 ~trough:100.0 ~peak:10.0 ~fs:0.0 ~fl:0.0 ~fm:0.0));
  (* trough must be the slow end *)
  raises_invalid (gen (d ~period:1e4 ~trough:10.0 ~peak:100.0 ~fs:0.0 ~fl:0.0 ~fm:0.0));
  (* flash window must fit inside the period *)
  raises_invalid (gen (d ~period:1e4 ~trough:100.0 ~peak:10.0 ~fs:9e3 ~fl:2e3 ~fm:5.0));
  (* flash needs a positive mean when enabled *)
  raises_invalid (gen (d ~period:1e4 ~trough:100.0 ~peak:10.0 ~fs:0.0 ~fl:1e3 ~fm:0.0))

let test_diurnal_deterministic_and_flash_dense () =
  let gen seed =
    Genset.generate_arrival ~rng:(Rng.create seed)
      ~composition:Genset.table1.(6) ~tasks:400 ~arrival:diurnal
  in
  let a = gen 7 and b = gen 7 in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  (* arrivals must cluster inside the recurring flash window: its
     rate (300 us mean) dwarfs even the diurnal peak (1 ms mean) *)
  let in_flash, elsewhere =
    List.partition
      (fun t ->
        let phase = Float.rem t.Genset.arrival_us 32_000.0 in
        phase >= 8_000.0 && phase < 14_000.0)
      a
  in
  let flash_density = float_of_int (List.length in_flash) /. 6_000.0 in
  let other_density = float_of_int (List.length elsewhere) /. 26_000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "flash density %.4f > 2x background %.4f" flash_density
       other_density)
    true
    (flash_density > 2.0 *. other_density)

(* ---------------- shape signatures ---------------- *)

let test_shape_signature_separates_registry () =
  let registry = Sysim.mapdb (Lazy.force registry) in
  let names = Mapdb.names registry in
  let sigs =
    List.filter_map
      (fun n -> Option.map (fun p -> (n, Mapdb.shape_signature p)) (Mapdb.find registry n))
      names
  in
  Alcotest.(check bool) "registry exposes plans" true (List.length sigs >= 10);
  (* distinct compiled shapes must never share a cache key; accels
     whose control/data shapes coincide may (that is the cache's
     point), so compare signatures against the shapes they encode *)
  List.iter
    (fun (n1, s1) ->
      List.iter
        (fun (n2, s2) ->
          if n1 < n2 && s1 = s2 then
            match (Mapdb.find registry n1, Mapdb.find registry n2) with
            | Some p1, Some p2 ->
              let shape (p : Mapdb.plan) =
                ( List.length p.Mapdb.fewest_first,
                  Mlv_core.Soft_block.shape_key
                    p.Mapdb.mapping.Mlv_core.Mapping.control,
                  Mlv_core.Soft_block.shape_key
                    p.Mapdb.mapping.Mlv_core.Mapping.data )
              in
              if shape p1 <> shape p2 then
                Alcotest.failf "distinct shapes %s and %s collide on %s" n1 n2 s1
            | _ -> ())
        sigs)
    sigs;
  (* the DeepBench registry actually exercises the key space: more
     than one distinct signature, and every signature non-empty *)
  let distinct = List.sort_uniq compare (List.map snd sigs) in
  Alcotest.(check bool) "multiple distinct shapes" true (List.length distinct > 1);
  List.iter (fun s -> Alcotest.(check bool) "non-empty key" true (s <> "")) distinct

(* ---------------- sysim integration ---------------- *)

let base_cfg ~tasks =
  let base =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(2)
  in
  {
    base with
    Sysim.seed = 5;
    tasks;
    repeats_per_task = 2;
    arrival = diurnal;
    serving = Some { Sysim.default_serving with Sysim.autoscale = None };
  }

(* Everything in a result but the wall clock. *)
let strip r = { r with Sysim.loop_wall_s = 0.0 }

let with_frontend cfg fe = { cfg with Sysim.frontend = Some fe }

let with_cache cfg ~capacity ~compile_us =
  with_frontend cfg
    { Sysim.default_frontend with Sysim.mapping_cache = Some (capacity, compile_us) }

let hit_rate (r : Sysim.result) =
  let lookups = r.Sysim.mapcache_hits + r.Sysim.mapcache_misses in
  if lookups = 0 then 0.0 else float_of_int r.Sysim.mapcache_hits /. float_of_int lookups

(* Sim-clock figures quoted in EXPERIMENTS.md, compared at the
   precision quoted there. *)
let check_fixed label digits expected v =
  Alcotest.(check string) label expected (Printf.sprintf "%.*f" digits v)

let test_frontend_none_bit_identical () =
  List.iter
    (fun (label, cfg, capacity, expected_hits) ->
      let bare = run cfg in
      let neutral = run (with_frontend cfg Sysim.default_frontend) in
      Alcotest.(check bool) (label ^ ": all-off frontend is invisible") true
        (strip bare = strip neutral);
      (* and a zero-cost cache only adds counters, never behavior *)
      let free = run (with_cache cfg ~capacity ~compile_us:0.0) in
      let blind r =
        {
          (strip r) with
          Sysim.mapcache_hits = 0;
          mapcache_misses = 0;
          mapcache_evictions = 0;
        }
      in
      Alcotest.(check bool) (label ^ ": zero-cost cache is invisible") true
        (blind bare = blind free);
      Alcotest.(check bool) (label ^ ": but the cache did run") true
        (free.Sysim.mapcache_hits + free.Sysim.mapcache_misses > 0);
      Option.iter
        (fun hits_misses ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: hit rate %.3f >= 0.9 on a repeat-heavy trace" label
               (hit_rate free))
            true
            (hit_rate free >= 0.9);
          Alcotest.(check (pair int int)) (label ^ ": hits/misses") hits_misses
            (free.Sysim.mapcache_hits, free.Sysim.mapcache_misses))
        expected_hits)
    [
      ("set 3, 80 tasks", base_cfg ~tasks:80, 32, None);
      ("flash workload", flash_cfg, 64, Some (798, 2));
    ]

(* One price per miss, three caches: free and priced at the same
   capacity see the same shapes (identical hit pattern) and only the
   priced one pays; a one-entry cache at the same price thrashes and
   must lose to the warm one on hits, misses and mean latency. *)
let cache_differential ~label cfg ~capacity ~compile_us =
  let free = run (with_cache cfg ~capacity ~compile_us:0.0) in
  let warm = run (with_cache cfg ~capacity ~compile_us) in
  let cold = run (with_cache cfg ~capacity:1 ~compile_us) in
  Alcotest.(check (pair int int)) (label ^ ": hit pattern independent of price")
    (free.Sysim.mapcache_hits, free.Sysim.mapcache_misses)
    (warm.Sysim.mapcache_hits, warm.Sysim.mapcache_misses);
  (* only misses pay: pricing compilation must slow the run down *)
  Alcotest.(check bool) (label ^ ": compile cost shows up in latency") true
    (warm.Sysim.mean_latency_us > free.Sysim.mean_latency_us);
  Alcotest.(check bool) (label ^ ": and in the makespan") true
    (warm.Sysim.makespan_us >= free.Sysim.makespan_us);
  Alcotest.(check bool) (label ^ ": warm out-hits cold") true
    (warm.Sysim.mapcache_hits > cold.Sysim.mapcache_hits);
  Alcotest.(check bool) (label ^ ": warm out-misses cold") true
    (warm.Sysim.mapcache_misses < cold.Sysim.mapcache_misses);
  Alcotest.(check bool) (label ^ ": warm mean latency <= cold") true
    (warm.Sysim.mean_latency_us <= cold.Sysim.mean_latency_us);
  Alcotest.(check bool) (label ^ ": a one-entry cache evicts") true
    (cold.Sysim.mapcache_evictions > 0);
  (warm, cold)

let test_mapping_cache_cost_differential () =
  ignore
    (cache_differential ~label:"set 3, 80 tasks" (base_cfg ~tasks:80) ~capacity:32
       ~compile_us:2_000.0);
  let warm, cold =
    cache_differential ~label:"flash workload" flash_cfg ~capacity:64 ~compile_us:800.0
  in
  check_fixed "warm mean latency (ms)" 1 "220.2" (warm.Sysim.mean_latency_us /. 1000.0);
  check_fixed "cold mean latency (ms)" 1 "252.5" (cold.Sysim.mean_latency_us /. 1000.0);
  Alcotest.(check (triple int int int)) "cold hits/misses/evictions" (601, 199, 198)
    ( cold.Sysim.mapcache_hits,
      cold.Sysim.mapcache_misses,
      cold.Sysim.mapcache_evictions )

(* The run keys its cache by an int interned per distinct shape
   signature rather than by the signature string.  Equal ids are equal
   signatures, so every capacity, thrashing ones included, reports the
   hits, misses and evictions the signature-keyed cache reported (the
   triples were recorded with it). *)
let test_mapping_cache_counts_pinned () =
  let set k = { (base_cfg ~tasks:120) with Sysim.composition = Genset.table1.(k - 1) } in
  List.iter
    (fun (label, cfg, capacity, expected) ->
      let r = run (with_cache cfg ~capacity ~compile_us:800.0) in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "%s, capacity %d: hits/misses/evictions" label capacity)
        expected
        (r.Sysim.mapcache_hits, r.Sysim.mapcache_misses, r.Sysim.mapcache_evictions))
    [
      ("set 7, 120 tasks", set 7, 1, (34, 86, 85));
      ("set 7, 120 tasks", set 7, 3, (84, 36, 33));
      ("set 7, 120 tasks", set 7, 6, (110, 10, 4));
      ("set 9, 120 tasks", set 9, 1, (23, 97, 96));
      ("set 9, 120 tasks", set 9, 2, (46, 74, 72));
      ("set 9, 120 tasks", set 9, 4, (78, 42, 38));
      ("set 9, 120 tasks", set 9, 6, (108, 12, 6));
      ("flash workload", flash_cfg, 1, (601, 199, 198));
      ("flash workload", flash_cfg, 64, (798, 2, 0));
    ]

let test_frontend_requires_serving () =
  let base =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(2)
  in
  Alcotest.check_raises "frontend without serving"
    (Invalid_argument "Sysim.run: config.frontend requires serving mode")
    (fun () ->
      ignore (run { base with Sysim.tasks = 4; frontend = Some Sysim.default_frontend }));
  (* predictive mode replaces the autoscaler's control law, so it
     needs one *)
  Alcotest.check_raises "predict without autoscale"
    (Invalid_argument "Sysim.run: frontend.predict requires serving.autoscale")
    (fun () ->
      ignore
        (run
           {
             base with
             Sysim.tasks = 4;
             serving = Some { Sysim.default_serving with Sysim.autoscale = None };
             frontend =
               Some
                 {
                   Sysim.default_frontend with
                   Sysim.predict = Some Autoscaler.default_predict;
                 };
           }))

let test_replay_matches_generation () =
  List.iter
    (fun (label, cfg) ->
      let generated = run cfg in
      (* replay what the textual trace format hands back *)
      let trace = roundtrip (Sysim.workload cfg) in
      let replayed = run { cfg with Sysim.replay = Some trace } in
      Alcotest.(check bool) (label ^ ": replayed trace is bit-identical") true
        (strip generated = strip replayed);
      (* replay also bypasses generation entirely: a different seed
         with the same replayed trace gives the same result *)
      let reseeded = run { cfg with Sysim.seed = 999; replay = Some trace } in
      Alcotest.(check bool) (label ^ ": replay wins over the seed") true
        (strip replayed = strip reseeded))
    [ ("set 3, 80 tasks", base_cfg ~tasks:80); ("flash workload", flash_cfg) ]

(* On the busy flash trace sticky routing lands repeat hits,
   out-of-order completions exercise the in-order hold buffer, and
   every request is delivered, shed or rejected: none is lost held. *)
let test_sessions_account () =
  let r =
    run
      (with_frontend flash_cfg
         {
           Sysim.default_frontend with
           Sysim.sessions = Some (Session.config ~idle_timeout_us:2_000.0 ());
         })
  in
  Alcotest.(check int) "every request accounted" 800
    (r.Sysim.completed + r.Sysim.shed + r.Sysim.rejected);
  Alcotest.(check bool) "sticky routing lands repeat hits" true (r.Sysim.sticky_hits > 0);
  Alcotest.(check bool) "a completion was held for in-order delivery" true
    (r.Sysim.held_results > 0);
  Alcotest.(check (pair int int)) "sticky hits/misses" (591, 2)
    (r.Sysim.sticky_hits, r.Sysim.sticky_misses);
  Alcotest.(check int) "held results" 121 r.Sysim.held_results

(* Expiry needs quiet gaps with nothing outstanding, which the flash
   trace never offers (a backlogged session may not be reaped): a calm
   sparse stream whose idle timeout undercuts the arrival spacing must
   cycle the session through expiry and reopening. *)
let test_sessions_calm_expiry () =
  let r =
    run
      {
        flash_cfg with
        Sysim.tasks = 80;
        arrival = Genset.Exponential { mean_us = 50_000.0 };
        frontend =
          Some
            {
              Sysim.default_frontend with
              Sysim.sessions = Some (Session.config ~idle_timeout_us:5_000.0 ());
            };
      }
  in
  Alcotest.(check bool) "expired and reopened" true
    (r.Sysim.sessions_expired >= 1 && r.Sysim.sessions_opened >= 2);
  Alcotest.(check (pair int int)) "opened/expired" (64, 63)
    (r.Sysim.sessions_opened, r.Sysim.sessions_expired)

(* Reactive and predictive autoscaling replay one recorded trace
   behind the same priced mapping cache; the control law is the only
   difference.  After its one-season warmup the Holt-Winters forecast
   pre-provisions the recurring flash. *)
let test_predictive_beats_reactive () =
  let scaled predict =
    with_frontend
      {
        flash_cfg with
        Sysim.replay = Some (Sysim.workload flash_cfg);
        serving =
          Some { Sysim.default_serving with Sysim.autoscale = Some Autoscaler.default };
      }
      { Sysim.default_frontend with Sysim.mapping_cache = Some (64, 500.0); predict }
  in
  let reactive = run (scaled None) in
  let predictive = run (scaled (Some Autoscaler.default_predict)) in
  Alcotest.(check bool) "cache hit rate >= 0.9" true (hit_rate predictive >= 0.9);
  Alcotest.(check bool) "predictive goodput >= reactive" true
    (predictive.Sysim.goodput_per_s >= reactive.Sysim.goodput_per_s);
  check_fixed "reactive goodput (/s)" 3 "463.711" reactive.Sysim.goodput_per_s;
  check_fixed "predictive goodput (/s)" 3 "548.209" predictive.Sysim.goodput_per_s;
  check_fixed "reactive p99 (ms)" 1 "34.4" (reactive.Sysim.p99_latency_us /. 1000.0);
  check_fixed "predictive p99 (ms)" 1 "35.3" (predictive.Sysim.p99_latency_us /. 1000.0);
  Alcotest.(check (pair int int)) "reactive scale up/down" (102, 100)
    (reactive.Sysim.scale_ups, reactive.Sysim.scale_downs);
  Alcotest.(check (pair int int)) "predictive scale up/down" (906, 147)
    (predictive.Sysim.scale_ups, predictive.Sysim.scale_downs);
  check_fixed "cache hit rate (%)" 1 "99.8" (100.0 *. hit_rate predictive);
  Alcotest.(check bool) "rerun is bit-identical" true
    (strip (run (scaled (Some Autoscaler.default_predict))) = strip predictive)

let () =
  Alcotest.run "serve"
    [
      ( "session",
        [
          Alcotest.test_case "touch and expiry" `Quick test_session_touch_and_expiry;
          Alcotest.test_case "outstanding blocks expiry" `Quick
            test_session_outstanding_blocks_expiry;
          Alcotest.test_case "in-order delivery" `Quick test_session_in_order_delivery;
          Alcotest.test_case "skip unblocks stream" `Quick
            test_session_skip_unblocks_stream;
          Alcotest.test_case "sticky affinity" `Quick test_session_affinity;
          Alcotest.test_case "config validation" `Quick test_session_config_validation;
        ] );
      ( "mapcache",
        [
          Alcotest.test_case "lru semantics" `Quick test_mapcache_lru;
          Alcotest.test_case "overwrite" `Quick test_mapcache_overwrite_no_evict;
        ] );
      ( "trace",
        [
          Alcotest.test_case "round-trip bit-exact" `Quick
            test_trace_roundtrip_bit_exact;
          Alcotest.test_case "rejects malformed" `Quick test_trace_rejects_malformed;
        ] );
      ( "diurnal",
        [
          Alcotest.test_case "validation" `Quick test_diurnal_validation;
          Alcotest.test_case "deterministic, flash-dense" `Quick
            test_diurnal_deterministic_and_flash_dense;
        ] );
      ( "shape_signature",
        [
          Alcotest.test_case "separates the registry" `Quick
            test_shape_signature_separates_registry;
        ] );
      ( "sysim",
        [
          Alcotest.test_case "frontend=None bit-identical" `Quick
            test_frontend_none_bit_identical;
          Alcotest.test_case "cache cost differential" `Quick
            test_mapping_cache_cost_differential;
          Alcotest.test_case "mapping cache counts pinned" `Quick
            test_mapping_cache_counts_pinned;
          Alcotest.test_case "frontend requires serving" `Quick
            test_frontend_requires_serving;
          Alcotest.test_case "replay matches generation" `Quick
            test_replay_matches_generation;
          Alcotest.test_case "sessions account" `Quick test_sessions_account;
          Alcotest.test_case "sessions calm expiry" `Quick test_sessions_calm_expiry;
          Alcotest.test_case "predictive >= reactive" `Quick
            test_predictive_beats_reactive;
        ] );
    ]
