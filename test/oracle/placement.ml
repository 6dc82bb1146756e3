(* Reference oracle for [Mlv_core.Runtime.deploy]'s search: the
   original snapshot-and-scan allocator.  It is a pure function of the
   runtime's public state (its cluster's controllers, failed nodes,
   policy and mapping database): it returns the placement [deploy]
   would make, and recomputes by scanning the fragmentation counters
   the capacity index keeps incrementally.  [test/test_place.ml]
   checks it before every deploy and [bench/place.ml] times it as the
   naive partner of the indexed allocator. *)

module Runtime = Mlv_core.Runtime
module Mapdb = Mlv_core.Mapdb
module Cluster = Mlv_cluster.Cluster
module Node = Mlv_cluster.Node
module Device = Mlv_fpga.Device
module Bitstream = Mlv_vital.Bitstream

(* Tentative assignment of pieces (already in allocation order — the
   plan presorts them biggest-first) to nodes against a fresh snapshot
   of free virtual blocks: O(nodes) per candidate choice. *)
let try_assign rt ~target_kind (pieces : Mapdb.piece_plan list) =
  let policy = Runtime.policy rt and cluster = Runtime.cluster rt in
  let n = Cluster.node_count cluster in
  let free = Array.init n (fun i -> Node.free_vbs (Cluster.node cluster i)) in
  let total = Array.init n (fun i -> Node.total_vbs (Cluster.node cluster i)) in
  let choose_node (bs : Bitstream.t) =
    let need =
      if policy.Runtime.whole_device then
        (* whole-device granularity: demand an empty device *)
        fun i -> free.(i) = total.(i) && free.(i) >= bs.Bitstream.vbs
      else fun i -> free.(i) >= bs.Bitstream.vbs
    in
    let candidates =
      List.filter
        (fun i ->
          (not (Runtime.node_failed rt i))
          && Device.equal_kind (Cluster.node cluster i).Node.kind bs.Bitstream.device
          && need i)
        (List.init n Fun.id)
    in
    match candidates with
    | [] -> None
    | first :: _ ->
      if policy.Runtime.best_fit then
        Some
          (List.fold_left
             (fun best i -> if free.(i) < free.(best) then i else best)
             first candidates)
      else Some first
  in
  let rec assign acc = function
    | [] -> Some (List.rev acc)
    | (pp : Mapdb.piece_plan) :: rest -> (
      let rec try_options = function
        | [] -> None
        | (_, bs) :: more -> (
          match choose_node bs with
          | Some node ->
            let vbs =
              if policy.Runtime.whole_device then total.(node) else bs.Bitstream.vbs
            in
            free.(node) <- free.(node) - vbs;
            (match assign ((node, bs) :: acc) rest with
            | Some _ as ok -> ok
            | None ->
              free.(node) <- free.(node) + vbs;
              try_options more)
          | None -> try_options more)
      in
      try_options (Mapdb.options pp ~kind:target_kind))
  in
  assign [] pieces

(* [assign rt ~accel] is the [(node, bitstream)] list [Runtime.deploy rt
   ~accel] would load (whole-device bitstreams resized to the device),
   or [None] where it would refuse. *)
let assign rt ~accel =
  let policy = Runtime.policy rt in
  match Mapdb.find (Runtime.registry rt) accel with
  | None -> None
  | Some plan ->
    let levels =
      Mapdb.levels plan ~fewest_first:policy.Runtime.fewest_first
        ~whole_device:policy.Runtime.whole_device
    in
    let target_kinds =
      if policy.Runtime.same_type_only then List.map Option.some Device.kinds
      else [ None ]
    in
    List.find_map
      (fun (lp : Mapdb.level_plan) ->
        List.find_map
          (fun k -> try_assign rt ~target_kind:k lp.Mapdb.pieces)
          target_kinds)
      levels
    |> Option.map
         (List.map (fun (node, (bs : Bitstream.t)) ->
              if policy.Runtime.whole_device then
                let total = Node.total_vbs (Cluster.node (Runtime.cluster rt) node) in
                (node, { bs with Bitstream.vbs = total })
              else (node, bs)))

(* [signature placements] identifies an assignment by node, bitstream
   id and loaded virtual blocks; [deployed d] is the assignment a
   deployment holds, in the same order [assign] returns. *)
let signature placements =
  List.map (fun (node, (bs : Bitstream.t)) -> (node, Bitstream.id bs, bs.Bitstream.vbs))
    placements

let deployed (d : Runtime.deployment) =
  List.map (fun (p : Runtime.placement) -> (p.Runtime.node_id, p.Runtime.bitstream))
    d.Runtime.placements

(* Free blocks over the healthy nodes, free blocks on completely-free
   healthy nodes, and the count of those nodes. *)
let frag_counts rt =
  let cluster = Runtime.cluster rt in
  let free_total = ref 0 and free_whole = ref 0 and whole_nodes = ref 0 in
  for i = 0 to Cluster.node_count cluster - 1 do
    if not (Runtime.node_failed rt i) then begin
      let node = Cluster.node cluster i in
      let free = Node.free_vbs node in
      free_total := !free_total + free;
      if free = Node.total_vbs node then begin
        free_whole := !free_whole + free;
        incr whole_nodes
      end
    end
  done;
  (!free_total, !free_whole, !whole_nodes)

let fragmentation rt =
  let free_total, free_whole, _ = frag_counts rt in
  if free_total = 0 then 0.0
  else float_of_int (free_total - free_whole) /. float_of_int free_total

let whole_free_nodes rt =
  let _, _, whole_nodes = frag_counts rt in
  whole_nodes
