open Mlv_fpga
module Cluster = Mlv_cluster.Cluster
module Node = Mlv_cluster.Node
module ISet = Set.Make (Int)

(* Per device kind: nodes bucketed by free-block count.  [by_free]
   holds every healthy node; [empty_by_free] the subset whose device
   is completely free (the whole-device policies' candidate pool).
   Bucket arrays are sized by the kind's largest device, so a query
   scans at most max_vbs + 1 buckets. *)
type kind_idx = {
  max_vbs : int;
  by_free : ISet.t array; (* index: free count *)
  empty_by_free : ISet.t array; (* free = total only *)
}

type t = {
  cluster : Cluster.t;
  free : int array; (* mirror of Controller.free_vbs *)
  total : int array;
  failed : bool array;
  node_kind : Device.kind array;
  kinds : kind_idx array; (* by [Device.kind_rank] *)
  (* Incremental fragmentation counters over healthy nodes only;
     maintained by attach/detach so the defragmenter reads them in
     O(1) instead of rescanning the fleet. *)
  mutable free_total : int; (* Σ free over healthy nodes *)
  mutable free_whole : int; (* Σ free over healthy whole-free nodes *)
  mutable whole_free_nodes : int;
}

let kind_idx t kind = t.kinds.(Device.kind_rank kind)

let attach t i =
  if not t.failed.(i) then begin
    let ki = kind_idx t t.node_kind.(i) in
    let f = t.free.(i) in
    ki.by_free.(f) <- ISet.add i ki.by_free.(f);
    t.free_total <- t.free_total + f;
    if f = t.total.(i) then begin
      ki.empty_by_free.(f) <- ISet.add i ki.empty_by_free.(f);
      t.free_whole <- t.free_whole + f;
      t.whole_free_nodes <- t.whole_free_nodes + 1
    end
  end

let detach t i =
  let ki = kind_idx t t.node_kind.(i) in
  let f = t.free.(i) in
  ki.by_free.(f) <- ISet.remove i ki.by_free.(f);
  ki.empty_by_free.(f) <- ISet.remove i ki.empty_by_free.(f);
  if not t.failed.(i) then begin
    t.free_total <- t.free_total - f;
    if f = t.total.(i) then begin
      t.free_whole <- t.free_whole - f;
      t.whole_free_nodes <- t.whole_free_nodes - 1
    end
  end

let index cluster ~vacant =
  let n = Cluster.node_count cluster in
  let node_kind = Array.init n (fun i -> (Cluster.node cluster i).Node.kind) in
  let total = Array.init n (fun i -> Node.total_vbs (Cluster.node cluster i)) in
  let kinds =
    Array.of_list
      (List.map
         (fun kind ->
           let max_vbs = ref 0 in
           Array.iteri
             (fun i k -> if Device.equal_kind k kind then max_vbs := max !max_vbs total.(i))
             node_kind;
           let max_vbs = !max_vbs in
           {
             max_vbs;
             by_free = Array.make (max_vbs + 1) ISet.empty;
             empty_by_free = Array.make (max_vbs + 1) ISet.empty;
           })
         Device.kinds)
  in
  let t =
    {
      cluster;
      free =
        (if vacant then Array.copy total
         else Array.init n (fun i -> Node.free_vbs (Cluster.node cluster i)));
      total;
      failed = Array.make n false;
      node_kind;
      kinds;
      free_total = 0;
      free_whole = 0;
      whole_free_nodes = 0;
    }
  in
  for i = 0 to n - 1 do
    attach t i
  done;
  t

let build cluster = index cluster ~vacant:false
let vacant cluster = index cluster ~vacant:true

(* Re-filing a node under the count it already has would leave every
   bucket and counter as it is: a [refresh] after the loads a
   reservation announced costs nothing. *)
let set_free t i f =
  if f <> t.free.(i) then begin
    detach t i;
    t.free.(i) <- f;
    attach t i
  end

let refresh t i = set_free t i (Node.free_vbs (Cluster.node t.cluster i))

let mark_failed t i =
  if not t.failed.(i) then begin
    detach t i;
    t.failed.(i) <- true
  end

let restore t i =
  if t.failed.(i) then begin
    (* Re-read the controller while still detached (the node sits in
       no bucket and no counter), then re-file as healthy. *)
    t.free.(i) <- Node.free_vbs (Cluster.node t.cluster i);
    t.failed.(i) <- false;
    attach t i
  end
  else refresh t i

let free t i = t.free.(i)
let total t i = t.total.(i)

let whole_free_nodes t = t.whole_free_nodes
let free_total t = t.free_total

(* Fraction of free virtual blocks stranded on partially-occupied
   devices — free capacity a whole-device request cannot use. *)
let fragmentation t =
  if t.free_total = 0 then 0.0
  else float_of_int (t.free_total - t.free_whole) /. float_of_int t.free_total

(* Smallest bucket ≥ vbs with a member, lowest id inside: exactly the
   naive scan's (min free, then min id) choice. *)
let best_fit t ~kind ~whole_device ~vbs =
  let ki = kind_idx t kind in
  let buckets = if whole_device then ki.empty_by_free else ki.by_free in
  let rec go f =
    if f > ki.max_vbs then None
    else if ISet.is_empty buckets.(f) then go (f + 1)
    else Some (ISet.min_elt buckets.(f))
  in
  go (max 0 vbs)

(* Lowest node id across every bucket ≥ vbs: the naive scan's first
   satisfying node in id order. *)
let first_fit t ~kind ~whole_device ~vbs =
  let ki = kind_idx t kind in
  let buckets = if whole_device then ki.empty_by_free else ki.by_free in
  let best = ref None in
  for f = max 0 vbs to ki.max_vbs do
    if not (ISet.is_empty buckets.(f)) then begin
      let id = ISet.min_elt buckets.(f) in
      match !best with
      | Some b when b <= id -> ()
      | _ -> best := Some id
    end
  done;
  !best

type txn = { index : t; mutable log : (int * int) list }

let begin_ index = { index; log = [] }

let reserve txn ~node ~vbs =
  let t = txn.index in
  if vbs < 0 || vbs > t.free.(node) then
    invalid_arg
      (Printf.sprintf "Alloc_index.reserve: node %d has %d free, need %d" node
         t.free.(node) vbs);
  set_free t node (t.free.(node) - vbs);
  txn.log <- (node, vbs) :: txn.log

let rollback txn =
  List.iter (fun (node, vbs) -> set_free txn.index node (txn.index.free.(node) + vbs)) txn.log;
  txn.log <- []

let commit txn = txn.log <- []

let consistent t =
  let n = Array.length t.free in
  let ok = ref true in
  let ft = ref 0 and fw = ref 0 and wn = ref 0 in
  for i = 0 to n - 1 do
    if not t.failed.(i) then begin
      ft := !ft + t.free.(i);
      if t.free.(i) = t.total.(i) then begin
        fw := !fw + t.free.(i);
        incr wn
      end
    end
  done;
  if !ft <> t.free_total || !fw <> t.free_whole || !wn <> t.whole_free_nodes then
    ok := false;
  for i = 0 to n - 1 do
    let ki = kind_idx t t.node_kind.(i) in
    let ctrl_free = Node.free_vbs (Cluster.node t.cluster i) in
    if t.free.(i) <> ctrl_free then ok := false;
    let f = t.free.(i) in
    if t.failed.(i) then begin
      (* a failed node must sit in no bucket *)
      Array.iter (fun s -> if ISet.mem i s then ok := false) ki.by_free;
      Array.iter (fun s -> if ISet.mem i s then ok := false) ki.empty_by_free
    end
    else begin
      if not (ISet.mem i ki.by_free.(f)) then ok := false;
      if f = t.total.(i) && not (ISet.mem i ki.empty_by_free.(f)) then ok := false;
      Array.iteri (fun g s -> if g <> f && ISet.mem i s then ok := false) ki.by_free;
      Array.iteri
        (fun g s -> if (g <> f || f <> t.total.(i)) && ISet.mem i s then ok := false)
        ki.empty_by_free
    end
  done;
  !ok
