(* Placement-engine tests: the indexed allocator must make
   byte-identical decisions to the snapshot-scan oracle
   (test/oracle/placement.ml) under every policy, and the capacity
   index must never drift from the controllers across
   deploy/undeploy/fail/restore/rebalance churn. *)

module Mapping = Mlv_core.Mapping
module Mapdb = Mlv_core.Mapdb
module Runtime = Mlv_core.Runtime
module Framework = Mlv_core.Framework
module Hypervisor = Mlv_core.Hypervisor
module Placement = Mlv_oracle.Placement
module SB = Mlv_core.Soft_block
module Device = Mlv_fpga.Device
module Resource = Mlv_fpga.Resource
module Cluster = Mlv_cluster.Cluster
module Bitstream = Mlv_vital.Bitstream
module Rng = Mlv_util.Rng

let registry =
  lazy (Framework.npu_registry ~tile_counts:[ 6; 21 ] ())

(* 9 XCVU37P + 3 XCKU115, a mid-size heterogeneous pod. *)
let pod_kinds =
  List.init 12 (fun i -> if i mod 4 = 3 then Device.XCKU115 else Device.XCVU37P)

(* ---------------- shape key ---------------- *)

let res l = Resource.make ~luts:l ()
let mk_leaf ?(m = "m") name = SB.leaf ~name ~module_name:m ~resources:(res 10) ()

let test_shape_key () =
  let a = SB.pipeline ~name:"a" [ mk_leaf "x"; SB.data_par ~name:"d" [ mk_leaf "y"; mk_leaf "y2" ] ] in
  let b = SB.pipeline ~name:"b" [ mk_leaf "p"; SB.data_par ~name:"e" [ mk_leaf "q"; mk_leaf "r" ] ] in
  let c = SB.pipeline ~name:"c" [ mk_leaf ~m:"other" "x"; SB.data_par ~name:"d" [ mk_leaf "y"; mk_leaf "y2" ] ] in
  Alcotest.(check bool) "equal shapes, equal keys" true
    (SB.equal_shape a b && SB.shape_key a = SB.shape_key b);
  Alcotest.(check bool) "different module, different key" true
    ((not (SB.equal_shape a c)) && SB.shape_key a <> SB.shape_key c);
  let flat = SB.data_par ~name:"f" [ mk_leaf "x"; mk_leaf "y" ] in
  let deep = SB.data_par ~name:"g" [ SB.data_par ~name:"h" [ mk_leaf "x"; mk_leaf "y" ] ] in
  Alcotest.(check bool) "structure in key" true (SB.shape_key flat <> SB.shape_key deep)

(* ---------------- mapdb plans ---------------- *)

let test_mapdb_plan () =
  let r = Lazy.force registry in
  match Mapdb.find r "npu-t21" with
  | None -> Alcotest.fail "npu-t21 not registered"
  | Some plan ->
    let counts = List.map (fun lp -> lp.Mapdb.piece_count) plan.Mapdb.fewest_first in
    Alcotest.(check (list int)) "fewest-first ascending" (List.sort compare counts) counts;
    Alcotest.(check (list int)) "most-first is the reverse"
      (List.rev counts)
      (List.map (fun lp -> lp.Mapdb.piece_count) plan.Mapdb.most_first);
    List.iter
      (fun lp ->
        Alcotest.(check int) "piece_count matches" lp.Mapdb.piece_count
          (List.length lp.Mapdb.pieces);
        let tiles = List.map (fun pp -> pp.Mapdb.piece.Mapping.tiles) lp.Mapdb.pieces in
        Alcotest.(check (list int)) "allocation order: tiles descending"
          (List.sort (fun a b -> compare b a) tiles)
          tiles;
        List.iter
          (fun pp ->
            List.iter
              (fun kind ->
                let restricted = Mapdb.options pp ~kind:(Some kind) in
                Alcotest.(check bool) "per-kind table is the kind subset" true
                  (List.for_all (fun (k, _) -> Device.equal_kind k kind) restricted
                  && List.length restricted
                     = List.length
                         (List.filter
                            (fun (k, _) -> Device.equal_kind k kind)
                            (Mapdb.options pp ~kind:None))))
              Device.kinds)
          lp.Mapdb.pieces)
      plan.Mapdb.fewest_first;
    List.iter
      (fun lp -> Alcotest.(check int) "single levels only" 1 lp.Mapdb.piece_count)
      plan.Mapdb.single_fewest

(* ---------------- differential: indexed ≡ oracle ---------------- *)

type op = Deploy of string | Undeploy of int | Fail of int | Restore of int | Rebalance

let script =
  [
    Deploy "npu-t6"; Deploy "npu-t6"; Deploy "npu-t6"; Deploy "npu-t21";
    Undeploy 1; Deploy "npu-t6"; Fail 2; Deploy "npu-t6"; Restore 2;
    Deploy "npu-t21"; Rebalance; Deploy "npu-t6"; Deploy "npu-t6";
    Undeploy 0; Deploy "npu-t21"; Deploy "npu-t6"; Deploy "npu-t6";
    Deploy "npu-t6"; Fail 7; Deploy "npu-t6"; Deploy "npu-t6";
    Deploy "npu-t6"; Restore 7; Deploy "npu-t21"; Deploy "npu-t6";
    Rebalance; Deploy "npu-t6"; Deploy "npu-t6"; Deploy "npu-t21";
  ]
  (* The pod is full by now.  Refuse the same accelerator back to back,
     and after each capacity change deploy it again: the runtime and
     the oracle must refuse, and place again, at the same steps. *)
  @ [
      Deploy "npu-t21"; Deploy "npu-t21"; Undeploy 0; Deploy "npu-t21";
      Deploy "npu-t21"; Deploy "npu-t21"; Fail 4; Deploy "npu-t21";
      Deploy "npu-t6"; Deploy "npu-t6"; Deploy "npu-t6"; Deploy "npu-t6";
      Restore 4; Deploy "npu-t21"; Deploy "npu-t21"; Undeploy 2; Rebalance;
      Deploy "npu-t21"; Deploy "npu-t21"; Undeploy 1; Undeploy 1;
      Deploy "npu-t6"; Deploy "npu-t21"; Deploy "npu-t21";
    ]

let sig_t = Alcotest.(list (triple int string int))

(* Used blocks per node, as the controllers see them and as the live
   deployments' placements add up. *)
let used_state rt =
  List.map (fun (_, used, _) -> used) (Runtime.stats rt).Runtime.per_node

let placed_state cluster live =
  let used = Array.make (Cluster.node_count cluster) 0 in
  List.iter
    (fun (d : Runtime.deployment) ->
      List.iter
        (fun (p : Runtime.placement) ->
          used.(p.Runtime.node_id) <- used.(p.Runtime.node_id) + p.Runtime.bitstream.Bitstream.vbs)
        d.Runtime.placements)
    live;
  Array.to_list used

(* The hypervisor's repack: one unbudgeted defrag pass, which never
   reports more moves than it attempted. *)
let rebalance h =
  let reply = Hypervisor.handle h "rebalance" in
  if Scanf.sscanf_opt reply "ok moved=%d attempted=%d%!" (fun m a -> m <= a) <> Some true
  then
    Alcotest.failf "rebalance replied %S" reply

let run_differential policy =
  let r = Lazy.force registry in
  let cluster = Cluster.create ~kinds:pod_kinds () in
  let rt = Runtime.create ~policy cluster r in
  let h = Hypervisor.create rt in
  let live = ref [] in
  (* accelerators whose latest deploy was refused *)
  let refused = Hashtbl.create 2 in
  let repeat_refusals = ref 0 and reopened = ref 0 in
  List.iteri
    (fun step op ->
      let ctx = Printf.sprintf "%s step %d" policy.Runtime.policy_name step in
      (match op with
      | Deploy accel -> (
        let expected = Placement.assign rt ~accel in
        match (Runtime.deploy rt ~accel, expected) with
        | Ok d, Some a ->
          Alcotest.check sig_t (ctx ^ ": oracle placements") (Placement.signature a)
            (Placement.signature (Placement.deployed d));
          live := !live @ [ d ];
          if Hashtbl.mem refused accel then incr reopened;
          Hashtbl.remove refused accel
        | Error _, None ->
          if Hashtbl.mem refused accel then incr repeat_refusals;
          Hashtbl.replace refused accel ()
        | Ok _, None -> Alcotest.failf "%s: indexed placed, oracle refused" ctx
        | Error e, Some _ -> Alcotest.failf "%s: oracle placed, indexed failed: %s" ctx e)
      | Undeploy i ->
        if i < List.length !live then begin
          Runtime.undeploy rt (List.nth !live i);
          live := List.filteri (fun j _ -> j <> i) !live
        end
      | Fail n ->
        let f = Runtime.fail_node rt n in
        live := List.filter (fun d -> not (List.memq d f.Runtime.lost)) !live
      | Restore n -> Runtime.restore_node rt n
      | Rebalance -> rebalance h);
      Alcotest.(check (list int))
        (ctx ^ ": live placements account for every used block")
        (used_state rt) (placed_state cluster !live);
      Alcotest.(check (float 1e-12))
        (ctx ^ ": fragmentation agrees")
        (Placement.fragmentation rt) (Runtime.fragmentation rt);
      Alcotest.(check int)
        (ctx ^ ": whole-free agrees")
        (Placement.whole_free_nodes rt) (Runtime.whole_free_nodes rt);
      Alcotest.(check bool) (ctx ^ ": index consistent") true (Runtime.index_consistent rt))
    script;
  Alcotest.(check bool) "some refusal repeats one" true (!repeat_refusals > 0);
  Alcotest.(check bool) "some refused deploy later places" true (!reopened > 0)

let test_differential_greedy () = run_differential Runtime.greedy
let test_differential_restricted () = run_differential Runtime.restricted
let test_differential_baseline () = run_differential Runtime.baseline
let test_differential_first_fit () = run_differential Runtime.first_fit

(* ---------------- churn invariant ---------------- *)

let test_churn_invariant () =
  let r = Lazy.force registry in
  let cluster = Cluster.create ~kinds:pod_kinds () in
  let total0 = Cluster.total_free_vbs cluster in
  let rt = Runtime.create ~policy:Runtime.greedy cluster r in
  let h = Hypervisor.create rt in
  let rng = Rng.create 42 in
  let nodes = Cluster.node_count cluster in
  for step = 1 to 400 do
    let roll = Rng.int rng 100 in
    (if roll < 45 then
       ignore
         (Runtime.deploy rt ~accel:(if Rng.bool rng then "npu-t6" else "npu-t21"))
     else if roll < 75 then (
       match Runtime.deployments rt with
       | [] -> ()
       | l -> Runtime.undeploy rt (Rng.choose rng l))
     else if roll < 85 then (
       let n = Rng.int rng nodes in
       if not (List.mem n (Runtime.failed_nodes rt)) then
         ignore (Runtime.fail_node rt n))
     else if roll < 95 then (
       match Runtime.failed_nodes rt with
       | [] -> ()
       | l -> Runtime.restore_node rt (Rng.choose rng l))
     else rebalance h);
    if not (Runtime.index_consistent rt) then
      Alcotest.failf "index drifted from controllers at step %d" step
  done;
  (* drain: everything released, every block accounted for *)
  List.iter (Runtime.undeploy rt) (Runtime.deployments rt);
  List.iter (Runtime.restore_node rt) (Runtime.failed_nodes rt);
  Alcotest.(check bool) "index consistent after drain" true (Runtime.index_consistent rt);
  Alcotest.(check int) "no leaked virtual blocks" total0 (Cluster.total_free_vbs cluster)

(* ---------------- feasibility ---------------- *)

module Obs = Mlv_obs.Obs

let full_registry = lazy (Mlv_sysim.Sysim.(mapdb (build_registry ())))
let policies = [ Runtime.greedy; Runtime.restricted; Runtime.baseline; Runtime.first_fit ]

let shapes =
  [
    ("paper cluster", Cluster.paper_kinds);
    ("lone XCKU115", [ Device.XCKU115 ]);
    ("lone XCVU37P", [ Device.XCVU37P ]);
    ("two XCKU115", [ Device.XCKU115; Device.XCKU115 ]);
  ]

let fresh_runtime policy kinds =
  Runtime.create ~policy (Cluster.create ~kinds ()) (Lazy.force full_registry)

(* Accelerators up to [last] in registration-size order. *)
let upto last =
  List.filter_map
    (fun tiles -> if tiles <= last then Some (Framework.accel_name ~tiles) else None)
    Mlv_sysim.Sysim.instance_tile_counts

(* [feasible] is exactly "deploy succeeds on a fresh runtime over a
   fresh cluster of that shape", for every accelerator, policy and
   shape; the answers for the small shapes are pinned. *)
let test_feasible_differential () =
  let names = Mapdb.names (Lazy.force full_registry) in
  List.iter
    (fun (shape, kinds) ->
      List.iter
        (fun policy ->
          let ctx = shape ^ " / " ^ policy.Runtime.policy_name in
          let rt = fresh_runtime policy kinds in
          let feasible = List.filter (fun accel -> Runtime.feasible rt ~accel) names in
          List.iter
            (fun accel ->
              let deploys =
                Result.is_ok (Runtime.deploy (fresh_runtime policy kinds) ~accel)
              in
              Alcotest.(check bool)
                (ctx ^ ": " ^ accel ^ " feasible iff a fresh deploy succeeds")
                deploys (List.mem accel feasible))
            names;
          let pinned =
            match (shape, policy.Runtime.policy_name) with
            | "lone XCKU115", _ -> Some (upto 13)
            | "lone XCVU37P", _ -> Some (upto 21)
            | "two XCKU115", "baseline" -> Some (upto 13)
            | "two XCKU115", ("greedy" | "restricted") -> Some (upto 21)
            | _ -> None
          in
          Option.iter
            (fun want ->
              Alcotest.(check (list string)) (ctx ^ ": pinned") (List.sort compare want)
                feasible)
            pinned)
        policies)
    shapes;
  Alcotest.(check bool) "unknown accelerator" false
    (Runtime.feasible (fresh_runtime Runtime.greedy Cluster.paper_kinds) ~accel:"ghost")

(* Asking a busy runtime changes nothing anyone can observe: no
   counter, histogram or span, the index and the live set, and the id
   the next deployment gets. *)
let test_feasible_no_side_effects () =
  Obs.reset ();
  let rt = fresh_runtime Runtime.greedy [ Device.XCKU115; Device.XCKU115 ] in
  let placed =
    List.filter_map
      (fun accel -> Result.to_option (Runtime.deploy rt ~accel))
      [ "npu-t6"; "npu-t4"; "npu-t6" ]
  in
  Runtime.mark_node_failed rt 1;
  let observed () =
    ( Obs.counters (),
      List.map (fun (n, h) -> (n, Obs.Histogram.count h)) (Obs.histograms ()),
      List.length (Obs.spans ()),
      Runtime.index_consistent rt,
      List.map (fun (d : Runtime.deployment) -> (d.Runtime.id, Runtime.nodes_used d))
        (Runtime.deployments rt) )
  in
  let before = observed () in
  let answers =
    List.map
      (fun accel -> Runtime.feasible rt ~accel)
      (Mapdb.names (Lazy.force full_registry))
  in
  Alcotest.(check int) "busy: three live deployments" 3 (List.length placed);
  Alcotest.(check bool) "something is feasible" true (List.mem true answers);
  Alcotest.(check bool) "something is not" true (List.mem false answers);
  Alcotest.(check bool) "nothing observable moved" true (before = observed ());
  Alcotest.(check bool) "index consistent" true (Runtime.index_consistent rt);
  Runtime.restore_node rt 1;
  Runtime.undeploy rt (List.hd placed);
  match Runtime.deploy rt ~accel:(List.hd placed).Runtime.accel with
  | Error e -> Alcotest.fail e
  | Ok d ->
    Alcotest.(check int) "next deployment id" (List.length placed) d.Runtime.id

(* The memo belongs to the registered plan: re-registering an
   accelerator under the same name asks again. *)
let test_feasible_reregistered () =
  let r = Mapdb.create () in
  let rt = Runtime.create ~policy:Runtime.greedy (Cluster.create ~kinds:[ Device.XCKU115 ] ()) r in
  let plan tiles =
    match Mapdb.find (Lazy.force full_registry) (Framework.accel_name ~tiles) with
    | Some p -> p.Mapdb.mapping
    | None -> Alcotest.failf "npu-t%d not registered" tiles
  in
  Alcotest.(check bool) "unknown" false (Runtime.feasible rt ~accel:"npu-t6");
  Mapdb.register r (plan 6);
  Alcotest.(check bool) "registered" true (Runtime.feasible rt ~accel:"npu-t6");
  Mapdb.register r { (plan 42) with Mapping.accel_name = "npu-t6" };
  Alcotest.(check bool) "re-registered too large" false (Runtime.feasible rt ~accel:"npu-t6");
  Mapdb.remove r "npu-t6";
  Alcotest.(check bool) "removed" false (Runtime.feasible rt ~accel:"npu-t6")

(* ---------------- O(1) refusal bound ---------------- *)

type churn_op = Deploy_op of int | Undeploy_op of int | Fail_op of int | Restore_op of int

let gen_churn =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun k -> Deploy_op k) nat);
        (3, map (fun k -> Undeploy_op k) nat);
        (1, map (fun k -> Fail_op k) nat);
        (1, map (fun k -> Restore_op k) nat);
      ]
  in
  pair (int_range 0 (List.length policies - 1)) (list_size (int_range 10 60) op)

(* Whenever the bound refuses a deploy, the snapshot-scan oracle finds
   no placement and the deploy fails, on the paper cluster under
   random churn with failed and restored nodes, under every policy.
   The runs must see the bound refuse. *)
let test_bound_sound () =
  let names = Array.of_list (Mapdb.names (Lazy.force full_registry)) in
  let refused = ref 0 in
  let prop =
    QCheck.Test.make ~name:"bound refusals are refusals" ~count:150
      (QCheck.make gen_churn)
      (fun (p, ops) ->
        let rt = fresh_runtime (List.nth policies p) Cluster.paper_kinds in
        let nodes = Cluster.node_count (Runtime.cluster rt) in
        List.for_all
          (fun op ->
            match op with
            | Deploy_op k ->
              let accel = names.(k mod Array.length names) in
              let bound = Runtime.refused_by_bound rt ~accel in
              let oracle = Placement.assign rt ~accel in
              if bound then incr refused;
              let placed = Result.is_ok (Runtime.deploy rt ~accel) in
              (not bound || (oracle = None && not placed)) && Runtime.index_consistent rt
            | Undeploy_op k -> (
              match Runtime.deployments rt with
              | [] -> true
              | l ->
                Runtime.undeploy rt (List.nth l (k mod List.length l));
                true)
            | Fail_op k ->
              if not (Runtime.node_failed rt (k mod nodes)) then
                ignore (Runtime.fail_node rt (k mod nodes));
              true
            | Restore_op k -> (
              match Runtime.failed_nodes rt with
              | [] -> true
              | l ->
                Runtime.restore_node rt (List.nth l (k mod List.length l));
                true))
          ops)
  in
  QCheck.Test.check_exn prop;
  Alcotest.(check bool) (Printf.sprintf "the bound refused (%d times)" !refused) true
    (!refused > 0)

let () =
  Alcotest.run "place"
    [
      ( "mapdb",
        [
          Alcotest.test_case "shape key" `Quick test_shape_key;
          Alcotest.test_case "deployment plan" `Quick test_mapdb_plan;
        ] );
      ( "differential",
        [
          Alcotest.test_case "greedy" `Quick test_differential_greedy;
          Alcotest.test_case "restricted" `Quick test_differential_restricted;
          Alcotest.test_case "baseline" `Quick test_differential_baseline;
          Alcotest.test_case "first_fit" `Quick test_differential_first_fit;
        ] );
      ( "churn",
        [ Alcotest.test_case "index never drifts" `Quick test_churn_invariant ] );
      ( "feasible",
        [
          Alcotest.test_case "fresh-deploy differential" `Quick test_feasible_differential;
          Alcotest.test_case "no side effects" `Quick test_feasible_no_side_effects;
          Alcotest.test_case "re-registered" `Quick test_feasible_reregistered;
        ] );
      ("bound", [ Alcotest.test_case "refusals are sound" `Quick test_bound_sound ]);
    ]
