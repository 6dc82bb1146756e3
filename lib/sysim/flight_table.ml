(* In-flight task table for the open-loop engine.

   Entries sit on an intrusive doubly-linked list (O(1) removal per
   completion, no allocation beyond the entry) plus a per-node
   secondary index (node -> seq -> entry), so the crash path asks
   "which flights touch node n" in O(hits) instead of partitioning
   every flight in the system.  Crash hits come back in unspecified
   order; callers needing determinism sort (sysim sorts by task id).
   test/flight_table_oracle.ml keeps the original cons-list table, and
   the differential test checks this one against it op by op. *)

type 'a entry = {
  seq : int;
  value : 'a;
  nodes : int list;
  mutable prev : 'a entry option;
  mutable next : 'a entry option;
  mutable live : bool;
}

type 'a t = {
  mutable head : 'a entry option;
  mutable size : int;
  mutable next_seq : int;
  by_node : (int, (int, 'a entry) Hashtbl.t) Hashtbl.t;
}

let create () =
  { head = None; size = 0; next_seq = 0; by_node = Hashtbl.create 64 }

let value e = e.value
let live e = e.live
let size t = t.size

let node_table t node =
  match Hashtbl.find_opt t.by_node node with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.replace t.by_node node tbl;
    tbl

let add t x ~nodes =
  let e =
    { seq = t.next_seq; value = x; nodes; prev = None; next = t.head; live = true }
  in
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  (match t.head with Some h -> h.prev <- Some e | None -> ());
  t.head <- Some e;
  List.iter (fun n -> Hashtbl.replace (node_table t n) e.seq e) nodes;
  e

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> ());
  e.prev <- None;
  e.next <- None;
  List.iter
    (fun n ->
      match Hashtbl.find_opt t.by_node n with
      | Some tbl -> Hashtbl.remove tbl e.seq
      | None -> ())
    e.nodes

let remove t e =
  if e.live then begin
    e.live <- false;
    t.size <- t.size - 1;
    unlink t e
  end

(* Flights touching [node], removed from the table, in O(hits). *)
let take_node t node =
  match Hashtbl.find_opt t.by_node node with
  | None -> []
  | Some tbl ->
    let hits = Hashtbl.fold (fun _ e acc -> e :: acc) tbl [] in
    List.iter (remove t) hits;
    hits

(* Entries in insertion order, newest first. *)
let to_list t =
  let rec walk acc = function
    | None -> List.rev acc
    | Some e -> walk (e :: acc) e.next
  in
  walk [] t.head
