(* Tests for the elastic serving layer: SLO admission, dynamic
   batching, weighted routing, the autoscaler control law, the
   closed-loop sysim engine built from them, migrate rollback under
   the indexed allocator, and per-attempt wait accounting. *)

module Slo = Mlv_sched.Slo
module Batcher = Mlv_sched.Batcher
module Router = Mlv_sched.Router
module Autoscaler = Mlv_sched.Autoscaler
module Sysim = Mlv_sysim.Sysim
module Runtime = Mlv_core.Runtime
module Defrag = Mlv_core.Defrag
module Registry = Mlv_core.Registry
module Framework = Mlv_core.Framework
module Cluster = Mlv_cluster.Cluster
module Fault_plan = Mlv_cluster.Fault_plan
module Genset = Mlv_workload.Genset
module Device = Mlv_fpga.Device
module Obs = Mlv_obs.Obs

(* ---------------- SLO admission ---------------- *)

let verdict =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Slo.Admitted -> "admitted"
        | Slo.Shed_rate -> "shed-rate"
        | Slo.Shed_priority -> "shed-priority"
        | Slo.Shed_tenant -> "shed-tenant"))
    ( = )

let test_slo_bucket_drains_and_refills () =
  let gate = Slo.create [ Slo.class_spec ~rate_per_s:1000.0 ~burst:2 "S" ] in
  let admit now = Slo.admit gate ~class_name:"S" ~now_us:now in
  Alcotest.check verdict "first token" Slo.Admitted (admit 0.0);
  Alcotest.check verdict "second token" Slo.Admitted (admit 0.0);
  Alcotest.check verdict "bucket empty" Slo.Shed_rate (admit 0.0);
  (* 1000/s = one token per 1000 us *)
  Alcotest.check verdict "not yet refilled" Slo.Shed_rate (admit 500.0);
  Alcotest.check verdict "refilled" Slo.Admitted (admit 1000.0);
  Alcotest.check verdict "only one token back" Slo.Shed_rate (admit 1000.0);
  (* refill caps at burst: a long quiet period grants 2 tokens, not 10 *)
  Alcotest.check verdict "burst 1/2" Slo.Admitted (admit 1_000_000.0);
  Alcotest.check verdict "burst 2/2" Slo.Admitted (admit 1_000_000.0);
  Alcotest.check verdict "capped at burst" Slo.Shed_rate (admit 1_000_000.0);
  Alcotest.(check int) "admitted counted" 5 (Slo.admitted_of gate "S");
  Alcotest.(check int) "shed counted" 4 (Slo.shed_of gate "S")

let test_slo_priority_threshold () =
  let gate =
    Slo.create [ Slo.class_spec ~priority:2 "S"; Slo.class_spec ~priority:0 "L" ]
  in
  Slo.set_shed_below gate 1;
  Alcotest.check verdict "high priority passes" Slo.Admitted
    (Slo.admit gate ~class_name:"S" ~now_us:0.0);
  Alcotest.check verdict "low priority shed" Slo.Shed_priority
    (Slo.admit gate ~class_name:"L" ~now_us:0.0);
  Slo.set_shed_below gate min_int;
  Alcotest.check verdict "threshold cleared" Slo.Admitted
    (Slo.admit gate ~class_name:"L" ~now_us:0.0)

let test_slo_unknown_and_empty () =
  let empty = Slo.create [] in
  Alcotest.check verdict "empty gate admits" Slo.Admitted
    (Slo.admit empty ~class_name:"anything" ~now_us:0.0);
  Alcotest.(check (float 0.0)) "no deadline" 0.0 (Slo.min_deadline_us empty);
  let gate =
    Slo.create
      [ Slo.class_spec ~deadline_us:9000.0 "S"; Slo.class_spec ~deadline_us:4000.0 "L" ]
  in
  Alcotest.check verdict "unknown class admits" Slo.Admitted
    (Slo.admit gate ~class_name:"XL" ~now_us:0.0);
  Alcotest.(check (float 0.0)) "tightest deadline" 4000.0 (Slo.min_deadline_us gate)

let test_slo_validation () =
  let raises f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  raises (fun () -> Slo.class_spec ~rate_per_s:0.0 "S");
  raises (fun () -> Slo.class_spec ~burst:0 "S");
  raises (fun () -> Slo.class_spec ~deadline_us:(-1.0) "S");
  raises (fun () -> Slo.create [ Slo.class_spec "S"; Slo.class_spec "S" ])

(* Regression: admissions whose class name matched no configured class
   were counted in the [admitted] total but in no per-class counter,
   so the per-class breakdown no longer summed to the totals.
   [unknown_admitted] closes the books. *)
let test_slo_accounting_identity () =
  let gate =
    Slo.create
      [
        Slo.class_spec ~rate_per_s:1000.0 ~burst:4 "S";
        Slo.class_spec ~rate_per_s:500.0 ~burst:2 ~priority:1 "L";
      ]
  in
  Slo.set_shed_below gate 1;
  (* Deterministic mixed traffic: known classes under rate and
     priority pressure, plus two unknown class names. *)
  let names = [| "S"; "L"; "XL"; "S"; "mystery"; "L"; "S"; "XL" |] in
  for i = 0 to 199 do
    let cls = names.(i mod Array.length names) in
    ignore (Slo.admit gate ~class_name:cls ~now_us:(float_of_int i *. 250.0))
  done;
  let per_class f =
    List.fold_left
      (fun acc (c : Slo.class_spec) -> acc + f gate c.Slo.class_name)
      0 (Slo.classes gate)
  in
  let lhs =
    per_class Slo.admitted_of + per_class Slo.shed_of + Slo.unknown_admitted gate
  in
  let rhs = Slo.admitted gate + Slo.shed gate in
  Alcotest.(check int) "per-class + unknown = totals" rhs lhs;
  Alcotest.(check bool) "unknown admissions observed" true
    (Slo.unknown_admitted gate > 0);
  Alcotest.(check bool) "some traffic shed" true (Slo.shed gate > 0);
  Alcotest.(check int) "every arrival accounted" 200 rhs

(* The same closure property for the tenant fair-share layer: over a
   mixed 3-tenant stream — plus decisions with no tenant or an
   unknown one, which bypass the pool — the per-tenant admitted/shed
   counters and [tenant_unknown] must cover every decision the gate
   made. *)
let test_slo_tenant_pool_identity () =
  let gate = Slo.create [ Slo.class_spec ~rate_per_s:1000.0 ~burst:4 "S" ] in
  Slo.set_tenant_pool gate ~rate_per_s:3000.0 ~burst:8
    [ Slo.tenant_spec "a"; Slo.tenant_spec ~weight:2.0 "b"; Slo.tenant_spec "c" ];
  let tenants = [| Some "a"; Some "b"; Some "c"; None; Some "mystery" |] in
  for i = 0 to 199 do
    let now_us = float_of_int i *. 97.0 in
    match tenants.(i mod Array.length tenants) with
    | Some tenant -> ignore (Slo.admit ~tenant gate ~class_name:"S" ~now_us)
    | None -> ignore (Slo.admit gate ~class_name:"S" ~now_us)
  done;
  let known = [ "a"; "b"; "c" ] in
  let sum f = List.fold_left (fun acc t -> acc + f gate t) 0 known in
  Alcotest.(check int) "per-tenant + unknown = totals"
    (Slo.admitted gate + Slo.shed gate)
    (sum Slo.admitted_of_tenant + sum Slo.shed_of_tenant
    + Slo.tenant_unknown gate);
  Alcotest.(check int) "every arrival accounted" 200
    (Slo.admitted gate + Slo.shed gate);
  Alcotest.(check bool) "fair-share sheds occurred" true
    (Slo.shed_tenant gate > 0);
  Alcotest.(check bool) "pool bypass observed" true
    (Slo.tenant_unknown gate > 0);
  (* weight 2 of 4 entitles b to half the pool rate *)
  Alcotest.(check (float 1e-9)) "weighted refill rate" 1500.0
    (Slo.tenant_rate_of gate "b");
  Alcotest.(check bool) "weighted tenant admits at least an equal peer" true
    (Slo.admitted_of_tenant gate "b" >= Slo.admitted_of_tenant gate "a")

let test_slo_tenant_pool_burst_bound () =
  (* Regression: flooring every tenant's burst at one token without
     renormalizing minted capacity out of thin air — 100 tiny tenants
     floored from 0.75 to 1.0 each overshot the pool by 25 tokens.
     Water-filling pins floored tenants at exactly the floor and
     re-splits the remainder by weight among the rest. *)
  let heavy = Slo.tenant_spec ~weight:1.0 "heavy" in
  let lights =
    List.init 100 (fun i -> Slo.tenant_spec ~weight:0.01 (Printf.sprintf "t%02d" i))
  in
  let gate = Slo.create [] in
  Slo.set_tenant_pool gate ~rate_per_s:1000.0 ~burst:150 (heavy :: lights);
  Alcotest.(check (float 1e-9)) "light tenant pinned at the floor" 1.0
    (Slo.tenant_burst_of gate "t00");
  Alcotest.(check (float 1e-9)) "heavy absorbs the remainder" 50.0
    (Slo.tenant_burst_of gate "heavy");
  let total =
    List.fold_left
      (fun acc s -> acc +. Slo.tenant_burst_of gate s.Slo.tenant_name)
      0.0 (heavy :: lights)
  in
  Alcotest.(check (float 1e-6)) "bursts sum to the pool" 150.0 total;
  (* with nobody under the floor the split is the plain weighted one,
     bit-identical to the pre-fix expression *)
  let plain = Slo.create [] in
  Slo.set_tenant_pool plain ~rate_per_s:100.0 ~burst:10
    [ Slo.tenant_spec "a"; Slo.tenant_spec "b" ];
  Alcotest.(check (float 1e-9)) "no-floor split unchanged" 5.0
    (Slo.tenant_burst_of plain "a")

(* ---------------- dynamic batching ---------------- *)

let test_batch_dispatch_on_fullness () =
  let b = Batcher.create (Batcher.config ~max_batch:3 ~max_linger_us:100.0 ()) in
  (match Batcher.add b ~key:"k" ~now_us:0.0 1 with
  | Batcher.Opened due -> Alcotest.(check (float 1e-9)) "flush armed" 100.0 due
  | _ -> Alcotest.fail "first request should open the batch");
  (match Batcher.add b ~key:"k" ~now_us:10.0 2 with
  | Batcher.Joined -> ()
  | _ -> Alcotest.fail "second request should join");
  (match Batcher.add b ~key:"k" ~now_us:20.0 3 with
  | Batcher.Dispatch batch ->
    Alcotest.(check (list int)) "oldest first" [ 1; 2; 3 ] batch
  | _ -> Alcotest.fail "third request should fill and dispatch");
  Alcotest.(check int) "nothing pending" 0 (Batcher.total_pending b);
  Alcotest.(check int) "one batch" 1 (Batcher.batches b)

let test_batch_linger_flush_and_stale_timer () =
  let b = Batcher.create (Batcher.config ~max_batch:4 ~max_linger_us:100.0 ()) in
  ignore (Batcher.add b ~key:"k" ~now_us:0.0 1);
  (* the armed timer fires but the batch already dispatched on
     fullness — the stale flush must be a no-op *)
  ignore (Batcher.add b ~key:"k" ~now_us:5.0 2);
  Alcotest.(check (list int)) "too early" [] (Batcher.flush_due b ~key:"k" ~now_us:50.0);
  Alcotest.(check (list int)) "due" [ 1; 2 ] (Batcher.flush_due b ~key:"k" ~now_us:100.0);
  Alcotest.(check (list int)) "stale timer no-op" []
    (Batcher.flush_due b ~key:"k" ~now_us:100.0);
  (* a batch opened later must not be released by the old deadline *)
  ignore (Batcher.add b ~key:"k" ~now_us:150.0 3);
  Alcotest.(check (list int)) "new batch not due yet" []
    (Batcher.flush_due b ~key:"k" ~now_us:200.0);
  Alcotest.(check (list int)) "drain pops unconditionally" [ 3 ]
    (Batcher.drain b ~key:"k");
  Alcotest.(check int) "two batches total" 2 (Batcher.batches b)

let test_batch_validation () =
  (match Batcher.config ~max_batch:0 () with
  | _ -> Alcotest.fail "max_batch 0 should raise"
  | exception Invalid_argument _ -> ());
  match Batcher.config ~max_linger_us:(-1.0) () with
  | _ -> Alcotest.fail "negative linger should raise"
  | exception Invalid_argument _ -> ()

(* The O(1) counters must track a from-scratch recount through every
   transition: open, join, dispatch on fullness, linger flush and
   drain. *)
let test_batch_incremental_counters () =
  let b =
    Batcher.create
      ~tenant_of:(fun (t, _) -> t)
      (Batcher.config ~max_batch:3 ~max_linger_us:100.0 ())
  in
  let recount () =
    let keys = Batcher.keys b in
    let total =
      List.fold_left (fun acc k -> acc + Batcher.pending b ~key:k) 0 keys
    in
    Alcotest.(check int) "total_pending matches recount" total
      (Batcher.total_pending b);
    Alcotest.(check int) "nonempty_kinds matches keys" (List.length keys)
      (Batcher.nonempty_kinds b)
  in
  ignore (Batcher.add b ~key:"x" ~now_us:0.0 ("a", 1));
  recount ();
  ignore (Batcher.add b ~key:"x" ~now_us:1.0 ("b", 2));
  ignore (Batcher.add b ~key:"y" ~now_us:2.0 ("a", 3));
  recount ();
  Alcotest.(check (list string)) "keys sorted" [ "x"; "y" ] (Batcher.keys b);
  Alcotest.(check int) "per-tenant pending" 2 (Batcher.pending_of_tenant b "a");
  (match Batcher.add b ~key:"x" ~now_us:3.0 ("c", 4) with
  | Batcher.Dispatch batch -> Alcotest.(check int) "full batch" 3 (List.length batch)
  | _ -> Alcotest.fail "third request should fill and dispatch");
  recount ();
  Alcotest.(check (list string)) "x empty after dispatch" [ "y" ] (Batcher.keys b);
  Alcotest.(check int) "flush pops y" 1
    (List.length (Batcher.flush_due b ~key:"y" ~now_us:500.0));
  recount ();
  Alcotest.(check int) "all drained" 0 (Batcher.total_pending b);
  Alcotest.(check int) "no nonempty kinds" 0 (Batcher.nonempty_kinds b);
  Alcotest.(check int) "tenant accounting drained" 0
    (Batcher.pending_of_tenant b "a")

(* ---------------- weighted routing ---------------- *)

let test_router_weighted_least_outstanding () =
  let r = Router.create () in
  Router.add_replica r ~key:"k" ~replica_id:0 ~weight:1.0;
  Router.add_replica r ~key:"k" ~replica_id:1 ~weight:2.0;
  (* tie at zero outstanding: lowest id wins *)
  Alcotest.(check (option int)) "tie breaks low id" (Some 0) (Router.pick r ~key:"k");
  Router.begin_work r ~key:"k" ~replica_id:0 1;
  (* 1/1.0 vs 0/2.0 *)
  Alcotest.(check (option int)) "least loaded" (Some 1) (Router.pick r ~key:"k");
  Router.begin_work r ~key:"k" ~replica_id:1 1;
  (* 1/1.0 = 1.0 vs 1/2.0 = 0.5: the heavy replica absorbs more *)
  Alcotest.(check (option int)) "weight-normalized" (Some 1) (Router.pick r ~key:"k");
  Router.end_work r ~key:"k" ~replica_id:0 1;
  Alcotest.(check (option int)) "back to the tie" (Some 0) (Router.pick r ~key:"k");
  Alcotest.(check int) "dispatched counts begin_work" 2 (Router.dispatched r);
  Router.remove_replica r ~key:"k" ~replica_id:0;
  Router.remove_replica r ~key:"k" ~replica_id:1;
  Alcotest.(check (option int)) "empty group" None (Router.pick r ~key:"k")

let test_router_validation () =
  let r = Router.create () in
  Router.add_replica r ~key:"k" ~replica_id:0 ~weight:1.0;
  (match Router.add_replica r ~key:"k" ~replica_id:0 ~weight:1.0 with
  | _ -> Alcotest.fail "duplicate id should raise"
  | exception Invalid_argument _ -> ());
  (match Router.add_replica r ~key:"k" ~replica_id:1 ~weight:0.0 with
  | _ -> Alcotest.fail "zero weight should raise"
  | exception Invalid_argument _ -> ());
  (* end_work clamps at zero rather than going negative *)
  Router.end_work r ~key:"k" ~replica_id:0 5;
  Alcotest.(check int) "clamped" 0 (Router.outstanding r ~key:"k" ~replica_id:0)

(* Differential: the min-heap router must agree with the sorted-list
   reference in [Router_oracle] on every pick, count and listing over
   a random add/remove/work sequence. *)
let test_router_shapes_differential () =
  let rng = Mlv_util.Rng.create 23 in
  let idx = Router.create () in
  let lin = Router_oracle.create () in
  let keys = [| "a"; "b"; "c" |] in
  let next_id = ref 0 in
  let live = ref [] in
  for _ = 0 to 799 do
    let r = Mlv_util.Rng.float rng 1.0 in
    if r < 0.3 || !live = [] then begin
      let key = keys.(Mlv_util.Rng.int rng 3) in
      let id = !next_id in
      incr next_id;
      let weight = 1.0 +. float_of_int (Mlv_util.Rng.int rng 3) in
      Router.add_replica idx ~key ~replica_id:id ~weight;
      Router_oracle.add_replica lin ~key ~replica_id:id ~weight;
      live := (key, id) :: !live
    end
    else if r < 0.42 then begin
      let n = Mlv_util.Rng.int rng (List.length !live) in
      let key, id = List.nth !live n in
      Router.remove_replica idx ~key ~replica_id:id;
      Router_oracle.remove_replica lin ~key ~replica_id:id;
      live := List.filteri (fun j _ -> j <> n) !live
    end
    else begin
      let key = keys.(Mlv_util.Rng.int rng 3) in
      let pi = Router.pick idx ~key in
      Alcotest.(check (option int)) "pick agrees" (Router_oracle.pick lin ~key) pi;
      match pi with
      | None -> ()
      | Some id ->
        let n = 1 + Mlv_util.Rng.int rng 4 in
        if Mlv_util.Rng.float rng 1.0 < 0.7 then begin
          Router.begin_work idx ~key ~replica_id:id n;
          Router_oracle.begin_work lin ~key ~replica_id:id n
        end
        else begin
          Router.end_work idx ~key ~replica_id:id n;
          Router_oracle.end_work lin ~key ~replica_id:id n
        end
    end;
    Alcotest.(check int) "total outstanding agrees"
      (Router_oracle.total_outstanding lin)
      (Router.total_outstanding idx);
    Alcotest.(check (list string)) "keys agree" (Router_oracle.keys lin)
      (Router.keys idx)
  done;
  Alcotest.(check int) "dispatched agrees" (Router_oracle.dispatched lin)
    (Router.dispatched idx);
  Array.iter
    (fun key ->
      Alcotest.(check (list int)) ("replicas of " ^ key)
        (Router_oracle.replicas lin ~key) (Router.replicas idx ~key);
      List.iter
        (fun id ->
          Alcotest.(check int)
            (Printf.sprintf "outstanding %s/%d" key id)
            (Router_oracle.outstanding lin ~key ~replica_id:id)
            (Router.outstanding idx ~key ~replica_id:id))
        (Router.replicas idx ~key))
    keys

(* ---------------- autoscaler control law ---------------- *)

let decision =
  Alcotest.testable
    (fun fmt d -> Format.pp_print_string fmt (Autoscaler.decision_to_string d))
    ( = )

let acfg = Autoscaler.default

let test_autoscaler_bootstrap_and_cooldown () =
  let tr = Autoscaler.tracker ~name:"test.boot" in
  Autoscaler.mark_scaled tr ~now_us:0.0;
  (* zero replicas + backlog: scales up even inside the cooldown *)
  Alcotest.check decision "bootstrap beats cooldown" Autoscaler.Scale_up
    (Autoscaler.decide acfg tr ~now_us:100.0 ~backlog:1 ~replicas:0 ~idle:0
       ~deadline_us:0.0);
  (* with a replica present the cooldown holds even under pressure *)
  Alcotest.check decision "cooldown holds" Autoscaler.Hold
    (Autoscaler.decide acfg tr ~now_us:100.0 ~backlog:100 ~replicas:1 ~idle:0
       ~deadline_us:0.0);
  Alcotest.check decision "cooldown expired" Autoscaler.Scale_up
    (Autoscaler.decide acfg tr ~now_us:acfg.Autoscaler.cooldown_us ~backlog:100
       ~replicas:1 ~idle:0 ~deadline_us:0.0)

let test_autoscaler_watermarks () =
  let tr = Autoscaler.tracker ~name:"test.marks" in
  (* 4 backlog / 2 replicas = 2.0, between the 0.5 and 3.0 watermarks *)
  Alcotest.check decision "between watermarks" Autoscaler.Hold
    (Autoscaler.decide acfg tr ~now_us:0.0 ~backlog:4 ~replicas:2 ~idle:0
       ~deadline_us:0.0);
  Alcotest.check decision "above high watermark" Autoscaler.Scale_up
    (Autoscaler.decide acfg tr ~now_us:0.0 ~backlog:7 ~replicas:2 ~idle:0
       ~deadline_us:0.0);
  (* at the max replica count the loop holds instead *)
  Alcotest.check decision "capped at max" Autoscaler.Hold
    (Autoscaler.decide acfg tr ~now_us:0.0 ~backlog:100
       ~replicas:acfg.Autoscaler.max_replicas ~idle:0 ~deadline_us:0.0);
  (* low backlog alone is not enough: an idle replica is required *)
  Alcotest.check decision "low but nothing idle" Autoscaler.Hold
    (Autoscaler.decide acfg tr ~now_us:0.0 ~backlog:1 ~replicas:2 ~idle:0
       ~deadline_us:0.0);
  Alcotest.check decision "low and idle" Autoscaler.Scale_down
    (Autoscaler.decide acfg tr ~now_us:0.0 ~backlog:1 ~replicas:2 ~idle:1
       ~deadline_us:0.0);
  (* min_replicas floors the shrink *)
  let floored = Autoscaler.config ~min_replicas:2 () in
  Alcotest.check decision "at the floor" Autoscaler.Hold
    (Autoscaler.decide floored tr ~now_us:0.0 ~backlog:0 ~replicas:2 ~idle:2
       ~deadline_us:0.0)

let test_autoscaler_p99_trigger () =
  let tr = Autoscaler.tracker ~name:"test.p99" in
  for _ = 1 to 100 do
    Autoscaler.observe_sojourn tr 10_000.0
  done;
  Alcotest.(check int) "samples recorded" 100 (Autoscaler.sojourn_count tr);
  Alcotest.(check bool) "p99 near the samples" true
    (Autoscaler.p99_sojourn_us tr > 5000.0);
  (* backlog is calm (1 per replica) but p99 breaches the deadline *)
  Alcotest.check decision "p99 breach scales up" Autoscaler.Scale_up
    (Autoscaler.decide acfg tr ~now_us:0.0 ~backlog:2 ~replicas:2 ~idle:0
       ~deadline_us:5000.0);
  Alcotest.check decision "deadline 0 disables the trigger" Autoscaler.Hold
    (Autoscaler.decide acfg tr ~now_us:0.0 ~backlog:2 ~replicas:2 ~idle:0
       ~deadline_us:0.0);
  (* a fresh tracker has no evidence: no breach *)
  let calm = Autoscaler.tracker ~name:"test.calm" in
  Alcotest.check decision "no samples, no breach" Autoscaler.Hold
    (Autoscaler.decide acfg calm ~now_us:0.0 ~backlog:2 ~replicas:2 ~idle:0
       ~deadline_us:5000.0)

let test_autoscaler_p99_window () =
  (* Regression: the p99 tracker used to accumulate sojourns forever,
     so one burst latched the breach trigger for the rest of the run
     and the loop never scaled back down.  The windowed tracker ages a
     burst out after two [p99_window_us] rotations. *)
  let cfg =
    Autoscaler.config ~cooldown_us:0.0 ~low_backlog_per_replica:1.0
      ~p99_window_us:1_000.0 ()
  in
  let tr = Autoscaler.tracker ~name:"test.p99window" in
  for _ = 1 to 100 do
    Autoscaler.observe_sojourn tr 50_000.0
  done;
  Alcotest.check decision "burst breaches the deadline" Autoscaler.Scale_up
    (Autoscaler.decide cfg tr ~now_us:10.0 ~backlog:2 ~replicas:2 ~idle:0
       ~deadline_us:10_000.0);
  (* first rotation: the burst moves to the previous epoch (still
     visible — a breach must not vanish the instant the window turns) *)
  ignore
    (Autoscaler.decide cfg tr ~now_us:1_500.0 ~backlog:0 ~replicas:2 ~idle:1
       ~deadline_us:10_000.0);
  (* second rotation: the burst has aged out entirely; with a calm
     queue and an idle replica the loop scales down (the pre-fix
     cumulative tracker returned Scale_up here forever) *)
  Alcotest.check decision "calm after the burst scales down"
    Autoscaler.Scale_down
    (Autoscaler.decide cfg tr ~now_us:3_000.0 ~backlog:0 ~replicas:2 ~idle:1
       ~deadline_us:10_000.0);
  Alcotest.(check (float 0.0)) "old samples aged out" 0.0
    (Autoscaler.p99_sojourn_us tr)

let test_autoscaler_validation () =
  let raises f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  raises (fun () -> Autoscaler.config ~interval_us:0.0 ());
  raises (fun () ->
      Autoscaler.config ~high_backlog_per_replica:1.0 ~low_backlog_per_replica:2.0 ());
  raises (fun () -> Autoscaler.config ~cooldown_us:(-1.0) ());
  raises (fun () -> Autoscaler.config ~min_replicas:(-1) ());
  raises (fun () -> Autoscaler.config ~min_replicas:4 ~max_replicas:2 ())

(* ---------------- tenant-pool re-set ---------------- *)

(* Session churn re-sets the pool mid-run; the renormalization must
   re-split shares against the new membership without minting tokens
   for surviving tenants or dropping their counters. *)
let test_slo_tenant_pool_reset_renormalizes () =
  let gate = Slo.create [] in
  Slo.set_tenant_pool gate ~rate_per_s:1000.0 ~burst:4
    [ Slo.tenant_spec "a"; Slo.tenant_spec "b" ];
  (* a drains its 2-token bucket; everything at t=0 so nothing refills *)
  Alcotest.(check bool) "a admits 1" true
    (Slo.admit ~tenant:"a" gate ~class_name:"S" ~now_us:0.0 = Slo.Admitted);
  Alcotest.(check bool) "a admits 2" true
    (Slo.admit ~tenant:"a" gate ~class_name:"S" ~now_us:0.0 = Slo.Admitted);
  Alcotest.(check bool) "a bucket empty" true
    (Slo.admit ~tenant:"a" gate ~class_name:"S" ~now_us:0.0 = Slo.Shed_tenant);
  (* c joins: shares renormalize 2 -> 4/3, still summing to the pool *)
  Slo.set_tenant_pool gate ~rate_per_s:1000.0 ~burst:4
    [ Slo.tenant_spec "a"; Slo.tenant_spec "b"; Slo.tenant_spec "c" ];
  let total =
    List.fold_left
      (fun acc n -> acc +. Slo.tenant_burst_of gate n)
      0.0 [ "a"; "b"; "c" ]
  in
  Alcotest.(check (float 1e-9)) "bursts still sum to the pool" 4.0 total;
  (* a consumed everything before the re-set: scaling 0 tokens by the
     burst ratio must not conjure admission capacity *)
  Alcotest.(check bool) "a stays drained across the re-set" true
    (Slo.admit ~tenant:"a" gate ~class_name:"S" ~now_us:0.0 = Slo.Shed_tenant);
  (* b kept its full 2 tokens, scaled to the new 4/3 burst: one
     admission left, not two *)
  Alcotest.(check bool) "b keeps its scaled balance" true
    (Slo.admit ~tenant:"b" gate ~class_name:"S" ~now_us:0.0 = Slo.Admitted);
  Alcotest.(check bool) "b has no second token" true
    (Slo.admit ~tenant:"b" gate ~class_name:"S" ~now_us:0.0 = Slo.Shed_tenant);
  (* the newcomer starts with a full (4/3-token) bucket *)
  Alcotest.(check bool) "c starts full" true
    (Slo.admit ~tenant:"c" gate ~class_name:"S" ~now_us:0.0 = Slo.Admitted);
  (* admission counters survive the re-set *)
  Alcotest.(check int) "a's counters preserved" 2 (Slo.admitted_of_tenant gate "a");
  Alcotest.(check bool) "a's sheds preserved" true (Slo.shed_of_tenant gate "a" >= 1)

(* ---------------- predictive autoscaling ---------------- *)

let test_forecast_learns_season () =
  let f = Mlv_sched.Forecast.create ~period:4 () in
  (* three cycles of a spiky season: slot 0 carries the load *)
  for _ = 1 to 3 do
    List.iter (Mlv_sched.Forecast.observe f) [ 1000.0; 10.0; 10.0; 10.0 ]
  done;
  (* last sample was slot 3; one tick ahead is the peak slot *)
  let peak = Mlv_sched.Forecast.forecast f ~ahead:1 in
  let trough = Mlv_sched.Forecast.forecast f ~ahead:2 in
  Alcotest.(check bool)
    (Printf.sprintf "peak forecast %.0f well above trough %.0f" peak trough)
    true
    (peak > 4.0 *. trough && peak > 300.0);
  Alcotest.(check int) "observation count" 12 (Mlv_sched.Forecast.observations f)

let test_predictive_cold_falls_back () =
  let cfg = Autoscaler.config ~cooldown_us:0.0 () in
  let p = Autoscaler.predict ~season_ticks:4 ~warmup:4 () in
  let tr = Autoscaler.tracker ~name:"predict-cold" in
  let pt = Autoscaler.ptracker p in
  (* no rate samples yet: the reactive watermark rules decide, and
     the target moves by one replica as the reactive loop does *)
  let d, target =
    Autoscaler.decide_predictive cfg p tr pt ~now_us:0.0 ~backlog:10 ~replicas:1
      ~idle:0 ~deadline_us:0.0
  in
  Alcotest.(check bool) "cold model scales reactively" true (d = Autoscaler.Scale_up);
  Alcotest.(check int) "cold target is one step" 2 target

let test_predictive_preprovisions_peak () =
  let cfg = Autoscaler.config ~cooldown_us:0.0 ~max_replicas:8 () in
  let p = Autoscaler.predict ~horizon:1 ~season_ticks:4 ~warmup:8 () in
  let tr = Autoscaler.tracker ~name:"predict-peak" in
  let pt = Autoscaler.ptracker p in
  (* 10 ms per task: one replica serves ~100/s *)
  Autoscaler.observe_service pt 10_000.0;
  for _ = 1 to 3 do
    List.iter (Autoscaler.observe_rate pt) [ 1000.0; 10.0; 10.0; 10.0 ]
  done;
  (* the next tick is the seasonal peak: the forecast must open the
     whole gap at once, not one replica *)
  let d, target =
    Autoscaler.decide_predictive cfg p tr pt ~now_us:0.0 ~backlog:0 ~replicas:2
      ~idle:0 ~deadline_us:0.0
  in
  Alcotest.(check bool) "peak predicted: scale up" true (d = Autoscaler.Scale_up);
  Alcotest.(check bool)
    (Printf.sprintf "target %d jumps well past 3" target)
    true (target >= 6);
  (* one more peak sample: the look-ahead slot is now the trough, and
     with an idle replica the fleet shrinks toward the forecast *)
  Autoscaler.observe_rate pt 1000.0;
  let d2, target2 =
    Autoscaler.decide_predictive cfg p tr pt ~now_us:10_000.0 ~backlog:0
      ~replicas:8 ~idle:2 ~deadline_us:0.0
  in
  Alcotest.(check bool) "trough predicted: scale down" true
    (d2 = Autoscaler.Scale_down);
  Alcotest.(check bool)
    (Printf.sprintf "trough target %d below the fleet" target2)
    true (target2 < 8)

(* ---------------- bursty arrival process ---------------- *)

let test_bursty_arrivals_deterministic_and_clustered () =
  let composition = Genset.table1.(6) in
  let arrival =
    Genset.Bursty { on_us = 2000.0; off_us = 8000.0; on_mean_us = 50.0; off_mean_us = 2000.0 }
  in
  let draw () =
    Genset.generate_arrival
      ~rng:(Mlv_util.Rng.create 7)
      ~composition ~tasks:60 ~arrival
  in
  let a = draw () and b = draw () in
  Alcotest.(check (list (float 1e-9)))
    "same seed, same trace"
    (List.map (fun t -> t.Genset.arrival_us) a)
    (List.map (fun t -> t.Genset.arrival_us) b);
  let times = List.map (fun t -> t.Genset.arrival_us) a in
  Alcotest.(check bool) "sorted" true
    (List.for_all2 (fun x y -> x <= y) (List.filteri (fun i _ -> i < 59) times)
       (List.tl times));
  (* the busy phase (1/5 of the cycle) must hold well more than 1/5 of
     the arrivals — that is the whole point of the burst *)
  let in_on =
    List.length
      (List.filter (fun t -> Float.rem t.Genset.arrival_us 10_000.0 < 2000.0) a)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d/60 arrivals in the busy phase" in_on)
    true
    (in_on > 30);
  (* exponential arrivals through the new entry point are identical to
     the legacy generator: the open-loop engine stays bit-identical *)
  let old_way =
    Genset.generate
      ~rng:(Mlv_util.Rng.create 7)
      ~composition ~tasks:60 ~mean_interarrival_us:200.0
  in
  let new_way =
    Genset.generate_arrival
      ~rng:(Mlv_util.Rng.create 7)
      ~composition ~tasks:60
      ~arrival:(Genset.Exponential { mean_us = 200.0 })
  in
  Alcotest.(check (list (float 0.0)))
    "exponential path unchanged"
    (List.map (fun t -> t.Genset.arrival_us) old_way)
    (List.map (fun t -> t.Genset.arrival_us) new_way)

(* ---------------- closed-loop sysim ---------------- *)

let registry = lazy (Sysim.build_registry ())

let serving_config ?(tasks = 30) ?(autoscale = Some Autoscaler.default) () =
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  {
    cfg with
    Sysim.tasks;
    arrival =
      Some
        (Genset.Bursty
           { on_us = 2000.0; off_us = 8000.0; on_mean_us = 50.0; off_mean_us = 2000.0 });
    serving =
      Some
        {
          Sysim.classes = [];
          batch = Batcher.config ~max_batch:4 ~max_linger_us:100.0 ();
          autoscale;
          tenant_pool = None;
          preempt = false;
          defrag = None;
        };
  }

let test_serving_accounting_closes () =
  let r = Sysim.run ~registry:(Lazy.force registry) (serving_config ()) in
  Alcotest.(check int) "every task accounted" 30
    (r.Sysim.completed + r.Sysim.rejected + r.Sysim.shed);
  Alcotest.(check int) "none lost" 0 r.Sysim.lost;
  Alcotest.(check bool) "some completed" true (r.Sysim.completed > 0);
  Alcotest.(check bool) "batching happened" true (r.Sysim.batches > 0);
  Alcotest.(check bool) "autoscaler actuated" true (r.Sysim.scale_ups > 0);
  Alcotest.(check bool) "percentiles ordered" true
    (r.Sysim.p50_latency_us <= r.Sysim.p95_latency_us
    && r.Sysim.p95_latency_us <= r.Sysim.p99_latency_us)

let test_serving_deterministic () =
  let a = Sysim.run ~registry:(Lazy.force registry) (serving_config ()) in
  let b = Sysim.run ~registry:(Lazy.force registry) (serving_config ()) in
  Alcotest.(check (list (float 0.0))) "same latency series" a.Sysim.latencies_us
    b.Sysim.latencies_us;
  Alcotest.(check int) "same scale_ups" a.Sysim.scale_ups b.Sysim.scale_ups;
  Alcotest.(check int) "same sheds" a.Sysim.shed b.Sysim.shed;
  Alcotest.(check (float 0.0)) "same makespan" a.Sysim.makespan_us b.Sysim.makespan_us

let test_serving_rejects_fault_plans () =
  let plan =
    match Fault_plan.of_string "crash@100:1" with Ok p -> p | Error e -> Alcotest.fail e
  in
  let cfg =
    { (serving_config ()) with Sysim.faults = Some (Sysim.default_faults plan) }
  in
  match Sysim.run ~registry:(Lazy.force registry) cfg with
  | _ -> Alcotest.fail "serving + faults should raise"
  | exception Invalid_argument _ -> ()

let test_open_loop_untouched_by_arrival_field () =
  (* serving = None and arrival = None must reproduce the exact run
     the engine produced before the serving layer existed; spelling
     the default arrival out explicitly must change nothing *)
  let base =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  let base = { base with Sysim.tasks = 30 } in
  let a = Sysim.run ~registry:(Lazy.force registry) base in
  let b =
    Sysim.run ~registry:(Lazy.force registry)
      { base with Sysim.arrival = Some (Genset.Exponential { mean_us = 200.0 }) }
  in
  Alcotest.(check (list (float 0.0))) "same latency series" a.Sysim.latencies_us
    b.Sysim.latencies_us;
  Alcotest.(check (float 0.0)) "same makespan" a.Sysim.makespan_us b.Sysim.makespan_us;
  Alcotest.(check (float 0.0)) "same mean wait" a.Sysim.mean_wait_us b.Sysim.mean_wait_us;
  (* open-loop runs carry zeroed serving fields *)
  Alcotest.(check int) "no shed" 0 a.Sysim.shed;
  Alcotest.(check int) "no batches" 0 a.Sysim.batches;
  Alcotest.(check int) "no scaling" 0 (a.Sysim.scale_ups + a.Sysim.scale_downs)

let test_percentiles_match_histogram () =
  Obs.reset ();
  let r = Sysim.run ~registry:(Lazy.force registry) (serving_config ()) in
  let h = Obs.Histogram.get "sysim.task_sojourn_us" in
  Alcotest.(check int) "histogram saw every completion" r.Sysim.completed
    (Obs.Histogram.count h);
  (* the registry histogram uses ten log buckets per decade, so its
     estimate sits within one bucket (~26%) of the exact percentile *)
  let close p exact =
    let est = Obs.Histogram.percentile h p in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f exact %.0f vs histogram %.0f" p exact est)
      true
      (est >= exact /. 1.35 && est <= exact *. 1.35)
  in
  close 50.0 r.Sysim.p50_latency_us;
  close 99.0 r.Sysim.p99_latency_us

(* Tight per-class buckets on a bursty 40-task trace: the gate sheds. *)
let shedding_config () =
  let cfg = serving_config ~tasks:40 () in
  let classes =
    [
      Slo.class_spec ~priority:2 ~deadline_us:100_000.0 ~rate_per_s:500.0 ~burst:2 "S";
      Slo.class_spec ~priority:1 ~deadline_us:100_000.0 ~rate_per_s:500.0 ~burst:2 "M";
      Slo.class_spec ~priority:0 ~deadline_us:200_000.0 ~rate_per_s:500.0 ~burst:2 "L";
    ]
  in
  let serving = { (Option.get cfg.Sysim.serving) with Sysim.classes } in
  { cfg with Sysim.serving = Some serving }

let test_slo_classes_shed_under_pressure () =
  (* starve the gate: tight buckets on a bursty trace must shed, and
     per-class accounting must close against the run totals *)
  let r = Sysim.run ~registry:(Lazy.force registry) (shedding_config ()) in
  Alcotest.(check bool) "tight buckets shed" true (r.Sysim.shed > 0);
  Alcotest.(check int) "accounting still closes" 40
    (r.Sysim.completed + r.Sysim.rejected + r.Sysim.shed);
  Alcotest.(check int) "none lost" 0 r.Sysim.lost

(* A shed request is traced as [Shed], not [Reject]: each phase count
   closes against its own result counter. *)
let test_shed_traced_as_shed () =
  let shed0 = Obs.Trace.count Obs.Trace.Shed in
  let reject0 = Obs.Trace.count Obs.Trace.Reject in
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Trace.set_enabled false)
      (fun () ->
        Obs.Trace.set_enabled true;
        Sysim.run ~registry:(Lazy.force registry) (shedding_config ()))
  in
  Alcotest.(check bool) "the run sheds" true (r.Sysim.shed > 0);
  Alcotest.(check int) "shed events = shed" r.Sysim.shed
    (Obs.Trace.count Obs.Trace.Shed - shed0);
  Alcotest.(check int) "reject events = rejected" r.Sysim.rejected
    (Obs.Trace.count Obs.Trace.Reject - reject0)

(* ---------------- priority preemption ---------------- *)

(* Two XCVU37P nodes, a best-effort tenant whose replicas hog the
   fabric from t=0, and a priority tenant whose stream starts later
   (slower arrivals) on a different composition so the two never share
   a replica group: the priority tenant's bootstrap finds the fabric
   full and must evict.  (Two nodes, not one: the priority tenant's
   large models span devices, and a demand that cannot fit even an
   empty cluster never evicts anyone.) *)
let preempt_config ?(preempt = true) ?defrag ?bitstream_cache seed =
  let base =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(2)
  in
  {
    base with
    Sysim.seed;
    cluster_kinds = [ Device.XCVU37P; Device.XCVU37P ];
    tenants =
      [
        Genset.tenant_load ~priority:1 ~tasks:30
          ~arrival:(Genset.Exponential { mean_us = 400.0 })
          "gold";
        Genset.tenant_load ~tasks:30
          ~composition:Genset.table1.(1) (* 100% M: disjoint groups *)
          ~arrival:(Genset.Exponential { mean_us = 20.0 })
          "bulk";
      ];
    serving =
      Some
        {
          Sysim.classes = [];
          batch = Batcher.config ~max_batch:4 ~max_linger_us:100.0 ();
          autoscale = None;
          tenant_pool = None;
          preempt;
          defrag;
        };
    bitstream_cache;
  }

let check_preempt_identities ~label (r : Sysim.result) =
  Alcotest.(check int) (label ^ ": global identity") 60
    (r.Sysim.completed + r.Sysim.rejected + r.Sysim.shed + r.Sysim.preempted);
  Alcotest.(check int) (label ^ ": none lost") 0 r.Sysim.lost;
  List.iter
    (fun (t : Sysim.tenant_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: tenant %s identity" label t.Sysim.tn_name)
        t.Sysim.tn_arrived
        (t.Sysim.tn_completed + t.Sysim.tn_shed + t.Sysim.tn_rejected
       + t.Sysim.tn_preempted_lost))
    r.Sysim.per_tenant

let test_serving_preemption_accounting () =
  (* property over seeds: under preemption pressure every task is
     still accounted for, globally and per tenant *)
  let total = ref 0 in
  List.iter
    (fun seed ->
      let r = Sysim.run ~registry:(Lazy.force registry) (preempt_config seed) in
      total := !total + r.Sysim.preemptions;
      check_preempt_identities ~label:(Printf.sprintf "seed %d" seed) r;
      if r.Sysim.preemptions > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: evictions lose in-flight work" seed)
          true
          (r.Sysim.preempted >= 0))
    [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "preemption exercised across seeds" true (!total > 0)

let test_serving_preempt_defrag_cache_mix () =
  (* all three features at once: identities still close, repeat
     deployments consult the bitstream cache *)
  let r =
    Sysim.run ~registry:(Lazy.force registry)
      (preempt_config
         ~defrag:(Defrag.config ~frag_threshold:0.05 ~interval_us:500.0 ())
         ~bitstream_cache:32 3)
  in
  check_preempt_identities ~label:"mix" r;
  Alcotest.(check bool) "cache consulted" true
    (r.Sysim.cache_hits + r.Sysim.cache_misses > 0);
  (* preempt off on the same workload: no preemption-side effects *)
  let off =
    Sysim.run ~registry:(Lazy.force registry) (preempt_config ~preempt:false 3)
  in
  Alcotest.(check int) "preempt off: no evictions" 0 off.Sysim.preemptions;
  Alcotest.(check int) "preempt off: nothing preempted" 0 off.Sysim.preempted

(* ---------------- migrate rollback differential ---------------- *)

(* A small registry the single-device cluster can host a few of. *)
let toy_registry () =
  let r = Registry.create () in
  (match Framework.build_npu ~tiles:6 () with
  | Ok npu -> Registry.register r npu.Framework.mapping
  | Error e -> Alcotest.fail e);
  r

let test_migrate_rollback_differential () =
  (* Force-migrate with every node marked failed: the deploy inside
     migrate cannot place anywhere, so the rollback must restore the
     original placements exactly.  Run the same scenario on an indexed
     and a naive runtime: every decision must match, and the capacity
     index must stay consistent after the failed migration. *)
  let scenario ~indexed =
    let reg = toy_registry () in
    let cluster = Cluster.create ~kinds:[ Device.XCVU37P; Device.XCVU37P ] () in
    let rt = Runtime.create ~policy:Runtime.greedy ~indexed cluster reg in
    let rec fill acc =
      match Runtime.deploy rt ~accel:"npu-t6" with
      | Ok d -> fill (d :: acc)
      | Error _ -> List.rev acc
    in
    let deployed = fill [] in
    Alcotest.(check bool) "cluster holds several" true (List.length deployed >= 2);
    let victim = List.hd deployed in
    let before = Runtime.nodes_used victim in
    for n = 0 to Cluster.node_count cluster - 1 do
      Runtime.mark_node_failed rt n
    done;
    let outcome = Runtime.migrate ~force:true rt victim in
    (match outcome with
    | Ok _ -> Alcotest.fail "migrate with all nodes down should fail"
    | Error _ ->
      Alcotest.(check (list int)) "rollback restored placement" before
        (Runtime.nodes_used victim);
      Alcotest.(check bool) "still live after rollback" true
        (List.memq victim (Runtime.deployments rt)));
    Alcotest.(check bool) "index consistent after failed migrate" true
      (Runtime.index_consistent rt);
    for n = 0 to Cluster.node_count cluster - 1 do
      Runtime.restore_node rt n
    done;
    (* with capacity back, the same forced migration goes through and
       the rollback has left no hidden state behind *)
    let second = Runtime.migrate ~force:true rt victim in
    (match second with
    | Ok moved -> Alcotest.(check bool) "replaced whole" true (moved >= 1)
    | Error e -> Alcotest.fail e);
    Alcotest.(check bool) "index consistent after second" true
      (Runtime.index_consistent rt);
    List.iter (Runtime.undeploy rt) deployed;
    Alcotest.(check bool) "index consistent after teardown" true
      (Runtime.index_consistent rt);
    let tag = function Ok n -> Printf.sprintf "ok:%d" n | Error _ -> "error" in
    (List.length deployed, tag outcome, tag second, Runtime.nodes_used victim)
  in
  let i = scenario ~indexed:true in
  let n = scenario ~indexed:false in
  let pp_outcome fmt (a, b, c, d) =
    Format.fprintf fmt "(%d, %s, %s, [%s])" a b c
      (String.concat ";" (List.map string_of_int d))
  in
  Alcotest.(check (testable pp_outcome ( = ))) "indexed and naive agree" n i

(* ---------------- per-attempt wait accounting ---------------- *)

let test_wait_accounting_under_crash () =
  (* one long task interrupted by a crash: its end-to-end wait spans
     the outage, while each attempt's own queue wait is short — the
     two series must be kept apart *)
  let plan =
    match Fault_plan.of_string "crash@2000:0,restore@50000:0" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy
      ~composition:{ Genset.s = 1.0; m = 0.0; l = 0.0 }
  in
  let cfg =
    {
      cfg with
      Sysim.tasks = 1;
      mean_interarrival_us = 1.0;
      repeats_per_task = 500;
      cluster_kinds = [ Device.XCVU37P ];
      faults = Some (Sysim.default_faults plan);
    }
  in
  let r = Sysim.run ~registry:(Lazy.force registry) cfg in
  Alcotest.(check int) "completed" 1 r.Sysim.completed;
  Alcotest.(check int) "retried once" 1 r.Sysim.retried;
  Alcotest.(check int) "two deploy attempts" 2 r.Sysim.wait_attempts;
  (* the retry re-entered the queue at the crash; its second attempt
     started only after the restore at t=50000, so the per-attempt
     mean is large but still below the single end-to-end wait *)
  Alcotest.(check bool)
    (Printf.sprintf "per-attempt %.0f <= end-to-end %.0f"
       r.Sysim.mean_wait_per_attempt_us r.Sysim.mean_wait_us)
    true
    (r.Sysim.mean_wait_per_attempt_us <= r.Sysim.mean_wait_us);
  Alcotest.(check bool) "end-to-end wait spans the outage" true
    (r.Sysim.mean_wait_us >= 40_000.0)

let test_wait_series_agree_fault_free () =
  (* without crashes every task queues exactly once, so the two means
     coincide and attempts equal completions *)
  let cfg =
    Sysim.default_config ~policy:Runtime.greedy ~composition:Genset.table1.(6)
  in
  let r = Sysim.run ~registry:(Lazy.force registry) { cfg with Sysim.tasks = 30 } in
  Alcotest.(check int) "one attempt per completion"
    (r.Sysim.completed + r.Sysim.rejected)
    r.Sysim.wait_attempts;
  Alcotest.(check (float 1e-6)) "means coincide" r.Sysim.mean_wait_us
    r.Sysim.mean_wait_per_attempt_us

let () =
  Alcotest.run "sched"
    [
      ( "slo",
        [
          Alcotest.test_case "bucket drains and refills" `Quick
            test_slo_bucket_drains_and_refills;
          Alcotest.test_case "priority threshold" `Quick test_slo_priority_threshold;
          Alcotest.test_case "unknown and empty" `Quick test_slo_unknown_and_empty;
          Alcotest.test_case "validation" `Quick test_slo_validation;
          Alcotest.test_case "accounting identity" `Quick
            test_slo_accounting_identity;
          Alcotest.test_case "tenant pool burst bound" `Quick
            test_slo_tenant_pool_burst_bound;
          Alcotest.test_case "tenant pool identity" `Quick
            test_slo_tenant_pool_identity;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "dispatch on fullness" `Quick test_batch_dispatch_on_fullness;
          Alcotest.test_case "linger flush + stale timer" `Quick
            test_batch_linger_flush_and_stale_timer;
          Alcotest.test_case "validation" `Quick test_batch_validation;
          Alcotest.test_case "incremental counters" `Quick
            test_batch_incremental_counters;
        ] );
      ( "router",
        [
          Alcotest.test_case "weighted least outstanding" `Quick
            test_router_weighted_least_outstanding;
          Alcotest.test_case "validation" `Quick test_router_validation;
          Alcotest.test_case "shapes differential" `Quick
            test_router_shapes_differential;
        ] );
      ( "autoscaler",
        [
          Alcotest.test_case "bootstrap and cooldown" `Quick
            test_autoscaler_bootstrap_and_cooldown;
          Alcotest.test_case "watermarks" `Quick test_autoscaler_watermarks;
          Alcotest.test_case "p99 trigger" `Quick test_autoscaler_p99_trigger;
          Alcotest.test_case "p99 window ages out" `Quick
            test_autoscaler_p99_window;
          Alcotest.test_case "validation" `Quick test_autoscaler_validation;
          Alcotest.test_case "tenant pool re-set renormalizes" `Quick
            test_slo_tenant_pool_reset_renormalizes;
          Alcotest.test_case "forecast learns season" `Quick
            test_forecast_learns_season;
          Alcotest.test_case "predictive cold fallback" `Quick
            test_predictive_cold_falls_back;
          Alcotest.test_case "predictive pre-provisions peak" `Quick
            test_predictive_preprovisions_peak;
        ] );
      ( "workload",
        [
          Alcotest.test_case "bursty arrivals" `Quick
            test_bursty_arrivals_deterministic_and_clustered;
        ] );
      ( "serving",
        [
          Alcotest.test_case "accounting closes" `Quick test_serving_accounting_closes;
          Alcotest.test_case "deterministic" `Quick test_serving_deterministic;
          Alcotest.test_case "rejects fault plans" `Quick test_serving_rejects_fault_plans;
          Alcotest.test_case "open loop untouched" `Quick
            test_open_loop_untouched_by_arrival_field;
          Alcotest.test_case "percentiles match histogram" `Quick
            test_percentiles_match_histogram;
          Alcotest.test_case "slo classes shed" `Quick test_slo_classes_shed_under_pressure;
          Alcotest.test_case "shed traced as shed" `Quick test_shed_traced_as_shed;
          Alcotest.test_case "preemption accounting" `Quick
            test_serving_preemption_accounting;
          Alcotest.test_case "preempt+defrag+cache mix" `Quick
            test_serving_preempt_defrag_cache_mix;
        ] );
      ( "migrate",
        [
          Alcotest.test_case "rollback differential" `Quick
            test_migrate_rollback_differential;
        ] );
      ( "wait_accounting",
        [
          Alcotest.test_case "crash split" `Quick test_wait_accounting_under_crash;
          Alcotest.test_case "fault-free agreement" `Quick test_wait_series_agree_fault_free;
        ] );
    ]
