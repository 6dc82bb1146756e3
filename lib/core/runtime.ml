open Mlv_fpga
module Cluster = Mlv_cluster.Cluster
module Node = Mlv_cluster.Node
module Controller = Mlv_vital.Controller
module Bitstream = Mlv_vital.Bitstream
module Obs = Mlv_obs.Obs

type policy = {
  policy_name : string;
  fewest_first : bool;
  same_type_only : bool;
  whole_device : bool;
  best_fit : bool;
}

let greedy =
  {
    policy_name = "greedy";
    fewest_first = true;
    same_type_only = false;
    whole_device = false;
    best_fit = true;
  }

let restricted = { greedy with policy_name = "restricted"; same_type_only = true }

let baseline =
  {
    greedy with
    policy_name = "baseline";
    whole_device = true;
    same_type_only = true;
  }

let first_fit = { greedy with policy_name = "first_fit"; best_fit = false }

type placement = {
  node_id : int;
  bitstream : Bitstream.t;
  handle : Controller.handle;
}

type deployment = {
  id : int;
  accel : string;
  mutable placements : placement list;
  mutable reconfig_us : float;
}

let nodes_used d = List.map (fun p -> p.node_id) d.placements |> List.sort_uniq compare

let tiles_deployed d =
  List.fold_left (fun acc p -> acc + p.bitstream.Bitstream.tiles) 0 d.placements

type t = {
  cluster : Cluster.t;
  registry : Mapdb.t;
  policy : policy;
  index : Alloc_index.t;
  cache : Bitstream.Cache.t option;
      (* bitstream staging cache: when present, every controller load
         is re-priced through it (hit = amortized reconfiguration);
         [None] keeps deployment times bit-identical to cacheless
         builds *)
  mutable live : deployment list;
  mutable next_deploy_id : int;
  failed : (int, unit) Hashtbl.t;
  feasible : (Mapdb.plan * bool) Mapdb.Names.t;
}

let create ?(policy = greedy) ?cache cluster registry =
  {
    cluster;
    registry;
    policy;
    index = Alloc_index.build cluster;
    cache;
    live = [];
    next_deploy_id = 0;
    failed = Hashtbl.create 4;
    feasible = Mapdb.Names.create 8;
  }

let failed_nodes t = Hashtbl.fold (fun i () acc -> i :: acc) t.failed [] |> List.sort compare
let node_failed t id = Hashtbl.mem t.failed id
let failed_count t = Hashtbl.length t.failed
let cluster t = t.cluster
let policy t = t.policy
let registry t = t.registry
let deployments t = t.live
let bitstream_cache t = t.cache

let index_consistent t = Alloc_index.consistent t.index

(* Every real controller load/unload must re-file the node in the
   capacity index (the index mirrors the controllers). *)
let sync_node t id = Alloc_index.refresh t.index id

let unload_placement t p =
  Controller.unload (Cluster.node t.cluster p.node_id).Node.controller p.handle;
  sync_node t p.node_id

(* Reload previously-held placements (rollback path: a failed
   migration restores the exact prior allocation). *)
let reload_placements t placements =
  List.map
    (fun p ->
      let node = Cluster.node t.cluster p.node_id in
      match Controller.load node.Node.controller p.bitstream with
      | Ok (handle, _) ->
        sync_node t p.node_id;
        { p with handle }
      | Error msg -> failwith ("Runtime: rollback reload failed: " ^ msg))
    placements

(* Tentative assignment of pieces (already in allocation order — the
   plan presorts them biggest-first) to nodes over the incremental
   capacity index [ix]: candidate selection is one bucket scan,
   tentative allocations are transactional so backtracking leaves the
   index untouched. *)
let try_assign ix policy ~target_kind (pieces : Mapdb.piece_plan list) =
  let choose = if policy.best_fit then Alloc_index.best_fit else Alloc_index.first_fit in
  let rec assign acc = function
    | [] -> Some (List.rev acc)
    | (pp : Mapdb.piece_plan) :: rest -> (
      let rec try_options = function
        | [] -> None
        | (_, (bs : Bitstream.t)) :: more -> (
          match
            choose ix ~kind:bs.Bitstream.device ~whole_device:policy.whole_device
              ~vbs:bs.Bitstream.vbs
          with
          | Some node ->
            let vbs =
              if policy.whole_device then Alloc_index.total ix node
              else bs.Bitstream.vbs
            in
            let tx = Alloc_index.begin_ ix in
            Alloc_index.reserve tx ~node ~vbs;
            (match assign ((node, bs, Mapdb.cache_key pp bs) :: acc) rest with
            | Some _ as ok ->
              Alloc_index.commit tx;
              ok
            | None ->
              Alloc_index.rollback tx;
              try_options more)
          | None -> try_options more)
      in
      try_options (Mapdb.options pp ~kind:target_kind))
  in
  assign [] pieces

(* Whether [plan] cannot fit on [ix] whatever the search tries, in
   O(1).  Every piece reserves blocks on a healthy node, at least its
   smallest option's and disjoint from the other pieces', so a level
   needs at least the sum of those minima free in total; under
   [whole_device] every piece takes a whole free node of its own.
   [same_type_only] only narrows the options, so the bound holds for
   it too. *)
let cannot_fit ix policy plan =
  let need = Mapdb.need plan ~whole_device:policy.whole_device in
  Alloc_index.free_total ix < need.Mapdb.need_vbs
  || (policy.whole_device && Alloc_index.whole_free_nodes ix < need.Mapdb.need_pieces)

(* The mapping-database search: levels in policy order (the
   whole-device single-piece restriction — AS-ISA-only management has
   no multi-FPGA support — is precomputed at registration time), and
   per level each kind filter (every device kind under
   [same_type_only], else none).  The first assignment found, with its
   reservations committed on [ix], or [None]: at once when
   [cannot_fit]. *)
let search ix policy plan =
  if cannot_fit ix policy plan then None
  else
    let levels =
      Mapdb.levels plan ~fewest_first:policy.fewest_first
        ~whole_device:policy.whole_device
    in
    let target_kinds =
      if policy.same_type_only then List.map Option.some Device.kinds else [ None ]
    in
    let rec try_levels = function
      | [] -> None
      | (lp : Mapdb.level_plan) :: rest ->
        let rec try_filters = function
          | [] -> try_levels rest
          | k :: more -> (
            match try_assign ix policy ~target_kind:k lp.Mapdb.pieces with
            | Some _ as found -> found
            | None -> try_filters more)
        in
        try_filters target_kinds
    in
    try_levels levels

let perform t accel assignment =
  let reconfig = ref 0.0 in
  let placements =
    List.map
      (fun (node_id, bs, key) ->
        let node = Cluster.node t.cluster node_id in
        let bs_load =
          if t.policy.whole_device then
            { bs with Bitstream.vbs = Node.total_vbs node }
          else bs
        in
        match Controller.load node.Node.controller bs_load with
        | Ok (handle, time_us) ->
          let time_us =
            match t.cache with
            | Some c -> Bitstream.Cache.charge c key ~base_us:time_us
            | None -> time_us
          in
          reconfig := !reconfig +. time_us;
          sync_node t node_id;
          { node_id; bitstream = bs_load; handle }
        | Error msg -> failwith ("Runtime.deploy: controller refused: " ^ msg))
      assignment
  in
  let id = t.next_deploy_id in
  t.next_deploy_id <- t.next_deploy_id + 1;
  let d = { id; accel; placements; reconfig_us = !reconfig } in
  t.live <- d :: t.live;
  d

let refused_by_bound t ~accel =
  match Mapdb.find t.registry accel with
  | None -> false
  | Some plan -> cannot_fit t.index t.policy plan

let deploy_untraced t ~accel =
  match Mapdb.find t.registry accel with
  | None -> Error (Printf.sprintf "unknown accelerator %s" accel)
  | Some plan -> (
    match search t.index t.policy plan with
    | Some assignment -> Ok (perform t accel assignment)
    | None ->
      (* A full cluster refuses most deploys; [concat] builds the
         message for a quarter of [sprintf]'s allocation. *)
      Error
        (String.concat ""
           [ "no feasible allocation for "; accel; " under policy "; t.policy.policy_name ]))

(* The same search over a vacant view of the cluster, built per
   answer: a successful search leaves its reservations on the view.
   Memoised against the plan it was computed for, so re-registering an
   accelerator asks again. *)
let feasible t ~accel =
  match Mapdb.find t.registry accel with
  | None -> false
  | Some plan -> (
    match Mapdb.Names.find_opt t.feasible accel with
    | Some (p, ok) when p == plan -> ok
    | _ ->
      let ok = search (Alloc_index.vacant t.cluster) t.policy plan <> None in
      Mapdb.Names.replace t.feasible accel (plan, ok);
      ok)

(* Metric handles of the deploy and undeploy paths, resolved on first
   use. *)
let deploy_ok = lazy (Obs.Counter.get "runtime.deploy.ok")
let deploy_fail = lazy (Obs.Counter.get "runtime.deploy.fail")
let reconfig_us = lazy (Obs.Histogram.get "runtime.reconfig_us")
let undeploys = lazy (Obs.Counter.get "runtime.undeploy")

let deploy t ~accel =
  Obs.Span.with_span "deploy" (fun span ->
      Obs.Span.add_arg span "accel" accel;
      match deploy_untraced t ~accel with
      | Ok d ->
        Obs.Span.add_arg span "deployment" (string_of_int d.id);
        Obs.Counter.incr (Lazy.force deploy_ok);
        Obs.Histogram.observe (Lazy.force reconfig_us) d.reconfig_us;
        Ok d
      | Error _ as e ->
        Obs.Counter.incr (Lazy.force deploy_fail);
        e)

let deployment_vbs d =
  List.fold_left (fun acc p -> acc + p.bitstream.Bitstream.vbs) 0 d.placements

type stats = {
  live : int;
  vbs_used : int;
  vbs_total : int;
  per_node : (int * int * int) list;
}

let stats t =
  let n = Cluster.node_count t.cluster in
  let per_node =
    List.init n (fun i ->
        let node = Cluster.node t.cluster i in
        let total = Node.total_vbs node in
        (i, total - Node.free_vbs node, total))
  in
  let vbs_used = List.fold_left (fun acc (_, u, _) -> acc + u) 0 per_node in
  let vbs_total = List.fold_left (fun acc (_, _, tot) -> acc + tot) 0 per_node in
  { live = List.length t.live; vbs_used; vbs_total; per_node }

let cluster_utilization t =
  let s = stats t in
  if s.vbs_total = 0 then 0.0 else float_of_int s.vbs_used /. float_of_int s.vbs_total

let undeploy t d =
  List.iter (unload_placement t) d.placements;
  t.live <- List.filter (fun x -> x != d) t.live;
  Obs.Counter.incr (Lazy.force undeploys)

(* ------------------------------------------------------------------ *)
(* Fault handling: node failure, health, migration                     *)
(* ------------------------------------------------------------------ *)

(* Marking a node failed removes it from the allocators' candidate
   sets without touching the deployments placed on it; the caller
   decides whether to fail over ([fail_node]), migrate individual
   deployments ([migrate]) or re-queue work at a higher layer (the
   system simulation). *)
let mark_node_failed (t : t) node_id =
  if node_id < 0 || node_id >= Cluster.node_count t.cluster then
    invalid_arg (Printf.sprintf "Runtime.mark_node_failed: node %d out of range" node_id);
  if not (Hashtbl.mem t.failed node_id) then begin
    Hashtbl.replace t.failed node_id ();
    Alloc_index.mark_failed t.index node_id;
    Obs.Counter.incr (Obs.Counter.get "runtime.node_failed")
  end

let deployment_health t d =
  List.filter (fun id -> Hashtbl.mem t.failed id) (nodes_used d)

let degraded (t : t) = List.filter (fun d -> deployment_health t d <> []) t.live

(* Re-place one live deployment off the nodes marked failed: tear its
   placements down (freeing the surviving nodes' blocks), then run the
   normal mapping-database search, which no longer considers failed
   nodes.  On failure the original placements are reloaded — the
   deployment stays live but degraded. *)
let migrate_untraced ?(force = false) (t : t) d =
  if not (List.memq d t.live) then Error "Runtime.migrate: deployment is not live"
  else if deployment_health t d = [] && not force then Ok 0
  else begin
    let original = d.placements in
    List.iter (unload_placement t) original;
    t.live <- List.filter (fun x -> x != d) t.live;
    match deploy t ~accel:d.accel with
    | Ok fresh ->
      d.placements <- fresh.placements;
      d.reconfig_us <- d.reconfig_us +. fresh.reconfig_us;
      t.live <- d :: List.filter (fun x -> x != fresh) t.live;
      Ok (List.length fresh.placements)
    | Error e ->
      d.placements <- reload_placements t original;
      t.live <- d :: t.live;
      Error e
  end

let migrate ?(force = false) t d =
  Obs.Span.with_span "migrate" (fun span ->
      Obs.Span.add_arg span "deployment" (string_of_int d.id);
      match migrate_untraced ~force t d with
      | Ok _ as ok ->
        Obs.Counter.incr (Obs.Counter.get "runtime.migrate.ok");
        ok
      | Error _ as e ->
        Obs.Counter.incr (Obs.Counter.get "runtime.migrate.fail");
        e)

type failover = { recovered : int; lost : deployment list }

let fail_node_untraced (t : t) node_id =
  if node_id < 0 || node_id >= Cluster.node_count t.cluster then
    invalid_arg (Printf.sprintf "Runtime.fail_node: node %d out of range" node_id);
  mark_node_failed t node_id;
  let affected, unaffected =
    List.partition (fun d -> List.mem node_id (nodes_used d)) t.live
  in
  (* Release every placement of the affected deployments (the failed
     node's blocks are gone anyway; surviving nodes' blocks free up),
     then try to place each deployment again on the healthy nodes. *)
  List.iter (fun d -> List.iter (unload_placement t) d.placements) affected;
  t.live <- unaffected;
  let recovered = ref 0 in
  let lost = ref [] in
  List.iter
    (fun d ->
      match deploy t ~accel:d.accel with
      | Ok fresh ->
        (* graft so the caller's handle stays valid *)
        d.placements <- fresh.placements;
        d.reconfig_us <- d.reconfig_us +. fresh.reconfig_us;
        t.live <- d :: List.filter (fun x -> x != fresh) t.live;
        incr recovered
      | Error _ -> lost := d :: !lost)
    affected;
  { recovered = !recovered; lost = List.rev !lost }

let fail_node (t : t) node_id =
  Obs.Span.with_span "failover" (fun span ->
      Obs.Span.add_arg span "node" (string_of_int node_id);
      let f = fail_node_untraced t node_id in
      Obs.Span.add_arg span "recovered" (string_of_int f.recovered);
      Obs.Span.add_arg span "lost"
        (String.concat "," (List.map (fun d -> string_of_int d.id) f.lost));
      Obs.Counter.incr (Obs.Counter.get "runtime.fail_node");
      Obs.Counter.add (Obs.Counter.get "runtime.failover.recovered") f.recovered;
      Obs.Counter.add (Obs.Counter.get "runtime.failover.lost") (List.length f.lost);
      f)

let restore_node (t : t) node_id =
  Hashtbl.remove t.failed node_id;
  Alloc_index.restore t.index node_id

(* Fleet fragmentation: fraction of free virtual blocks stranded on
   partially-occupied healthy devices, O(1) off the capacity index. *)
let fragmentation (t : t) = Alloc_index.fragmentation t.index
let whole_free_nodes (t : t) = Alloc_index.whole_free_nodes t.index
