(* Placement-engine tests: the indexed allocator must make
   byte-identical decisions to the snapshot-scan oracle
   (test/oracle/placement.ml) under every policy, and the capacity
   index must never drift from the controllers across
   deploy/undeploy/fail/restore/rebalance churn. *)

module Mapping = Mlv_core.Mapping
module Mapdb = Mlv_core.Mapdb
module Registry = Mlv_core.Registry
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
  match Registry.plan r "npu-t21" with
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
    ]
