(* Weighted least-outstanding routing.

   Each group's replicas sit in an array-backed binary min-heap
   ordered by (outstanding/weight, replica id) with back-pointers, so
   pick is an O(1) peek and begin/end_work are O(log replicas) sifts;
   a per-group id table makes replica lookup O(1), the outstanding
   total is an incremental counter, and [keys] returns a cached list
   rebuilt only when group membership changes.  The policy — least
   outstanding per unit weight, ties to the lowest replica id — is
   checked op by op against the sorted-list reference in
   test/router_oracle.ml. *)

type replica = {
  id : int;
  weight : float;
  mutable outstanding : int;
  mutable pos : int;  (* heap slot; -1 when off-heap *)
}

type group = {
  mutable heap : replica array;
  mutable heap_n : int;
  by_id : (int, replica) Hashtbl.t;
}

type t = {
  groups : (string, group) Hashtbl.t;
  mutable routed : int;
  mutable total_out : int;  (* incremental Σ outstanding *)
  mutable keys_cache : string list;
  mutable keys_dirty : bool;
  tenant_routed : (string, int ref) Hashtbl.t;
}

let create () =
  {
    groups = Hashtbl.create 8;
    routed = 0;
    total_out = 0;
    keys_cache = [];
    keys_dirty = false;
    tenant_routed = Hashtbl.create 8;
  }

let load r = float_of_int r.outstanding /. r.weight

(* Heap order: lexicographic on (load, id) — the least load wins, ties
   to the lowest id. *)
let before a b =
  let la = load a and lb = load b in
  la < lb || (la = lb && a.id < b.id)

let swap g i j =
  let a = g.heap.(i) and b = g.heap.(j) in
  g.heap.(i) <- b;
  g.heap.(j) <- a;
  a.pos <- j;
  b.pos <- i

let rec sift_up g i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before g.heap.(i) g.heap.(parent) then begin
      swap g i parent;
      sift_up g parent
    end
  end

let rec sift_down g i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < g.heap_n && before g.heap.(l) g.heap.(i) then l else i in
  let m = if r < g.heap_n && before g.heap.(r) g.heap.(m) then r else m in
  if m <> i then begin
    swap g i m;
    sift_down g m
  end

let heap_push g r =
  if g.heap_n = Array.length g.heap then begin
    let bigger = Array.make (max 4 (2 * g.heap_n)) r in
    Array.blit g.heap 0 bigger 0 g.heap_n;
    g.heap <- bigger
  end;
  g.heap.(g.heap_n) <- r;
  r.pos <- g.heap_n;
  g.heap_n <- g.heap_n + 1;
  sift_up g r.pos

let heap_delete g r =
  let i = r.pos in
  g.heap_n <- g.heap_n - 1;
  if i <> g.heap_n then begin
    let last = g.heap.(g.heap_n) in
    g.heap.(i) <- last;
    last.pos <- i;
    sift_up g i;
    sift_down g i
  end;
  r.pos <- -1

let group t key =
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
    let g = { heap = [||]; heap_n = 0; by_id = Hashtbl.create 8 } in
    Hashtbl.replace t.groups key g;
    g

let add_replica t ~key ~replica_id ~weight =
  if weight <= 0.0 then invalid_arg "Router.add_replica: weight must be positive";
  let g = group t key in
  if Hashtbl.mem g.by_id replica_id then
    invalid_arg "Router.add_replica: duplicate replica id";
  let r = { id = replica_id; weight; outstanding = 0; pos = -1 } in
  Hashtbl.replace g.by_id replica_id r;
  heap_push g r;
  t.keys_dirty <- true

let remove_replica t ~key ~replica_id =
  match Hashtbl.find_opt t.groups key with
  | None -> ()
  | Some g -> (
    match Hashtbl.find_opt g.by_id replica_id with
    | None -> ()
    | Some r ->
      Hashtbl.remove g.by_id replica_id;
      heap_delete g r;
      t.total_out <- t.total_out - r.outstanding;
      t.keys_dirty <- true)

let pick t ~key =
  match Hashtbl.find_opt t.groups key with
  | None -> None
  | Some g -> if g.heap_n = 0 then None else Some g.heap.(0).id

let find t ~key ~replica_id =
  match Hashtbl.find_opt t.groups key with
  | None -> None
  | Some g -> Hashtbl.find_opt g.by_id replica_id

let begin_work t ~key ~replica_id n =
  match find t ~key ~replica_id with
  | None -> ()
  | Some r ->
    r.outstanding <- r.outstanding + n;
    t.routed <- t.routed + n;
    t.total_out <- t.total_out + n;
    (* load grew: the replica can only move away from the root *)
    sift_down (Hashtbl.find t.groups key) r.pos

let end_work t ~key ~replica_id n =
  match find t ~key ~replica_id with
  | None -> ()
  | Some r ->
    let next = max 0 (r.outstanding - n) in
    t.total_out <- t.total_out - (r.outstanding - next);
    r.outstanding <- next;
    sift_up (Hashtbl.find t.groups key) r.pos

let outstanding t ~key ~replica_id =
  match find t ~key ~replica_id with None -> 0 | Some r -> r.outstanding

let total_outstanding t = t.total_out

let replicas t ~key =
  match Hashtbl.find_opt t.groups key with
  | None -> []
  | Some g ->
    Hashtbl.fold (fun id _ acc -> id :: acc) g.by_id [] |> List.sort compare

let keys t =
  if t.keys_dirty then begin
    t.keys_cache <-
      Hashtbl.fold
        (fun k g acc -> if g.heap_n > 0 then k :: acc else acc)
        t.groups []
      |> List.sort compare;
    t.keys_dirty <- false
  end;
  t.keys_cache

let dispatched t = t.routed

(* Per-tenant routed accounting: callers attribute dispatched requests
   to tenants (the group structures themselves are tenant-agnostic —
   replicas are shared). *)
let note_routed t ~tenant n =
  match Hashtbl.find_opt t.tenant_routed tenant with
  | Some c -> c := !c + n
  | None -> Hashtbl.replace t.tenant_routed tenant (ref n)

let routed_of_tenant t tenant =
  match Hashtbl.find_opt t.tenant_routed tenant with Some c -> !c | None -> 0

let routed_by_tenant t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.tenant_routed []
  |> List.sort compare
