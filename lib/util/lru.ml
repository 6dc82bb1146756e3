type ('k, 'v) entry = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) entry option;  (* toward the most recent *)
  mutable next : ('k, 'v) entry option;  (* toward the least recent *)
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable head : ('k, 'v) entry option;  (* most recently used *)
  mutable tail : ('k, 'v) entry option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity
let length t = Hashtbl.length t.table
let mem t k = Hashtbl.mem t.table k

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let find t k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
    t.hits <- t.hits + 1;
    unlink t e;
    push_front t e;
    Some e.value
  | None ->
    t.misses <- t.misses + 1;
    None

let put t k v =
  match Hashtbl.find_opt t.table k with
  | Some e ->
    e.value <- v;
    unlink t e;
    push_front t e;
    false
  | None ->
    let evict = Hashtbl.length t.table >= t.capacity in
    (match t.tail with
    | Some lru when evict ->
      unlink t lru;
      Hashtbl.remove t.table lru.key;
      t.evictions <- t.evictions + 1
    | _ -> ());
    let e = { key = k; value = v; prev = None; next = None } in
    Hashtbl.replace t.table k e;
    push_front t e;
    evict

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let hit_rate t =
  let probes = t.hits + t.misses in
  if probes = 0 then 0.0 else float_of_int t.hits /. float_of_int probes

let keys t =
  let rec walk acc = function Some e -> walk (e.key :: acc) e.prev | None -> acc in
  walk [] t.tail
