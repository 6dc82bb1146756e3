(* Reference oracle for [Mlv_sched.Router]: the original sorted-list
   router.  Each group is a list of replicas sorted by id; [pick] folds
   it for the first strict minimum of outstanding/weight (so ties go to
   the lowest id), updates search the list, and the totals fold every
   group.  The differential test checks the heap-indexed router against
   it on every operation. *)

type replica = { id : int; weight : float; mutable outstanding : int }

type t = { groups : (string, replica list ref) Hashtbl.t; mutable routed : int }

let create () = { groups = Hashtbl.create 8; routed = 0 }

let load r = float_of_int r.outstanding /. r.weight

let group t key =
  match Hashtbl.find_opt t.groups key with
  | Some g -> g
  | None ->
    let g = ref [] in
    Hashtbl.replace t.groups key g;
    g

let add_replica t ~key ~replica_id ~weight =
  if weight <= 0.0 then invalid_arg "Router_oracle.add_replica: weight";
  let g = group t key in
  if List.exists (fun x -> x.id = replica_id) !g then
    invalid_arg "Router_oracle.add_replica: duplicate replica id";
  g :=
    List.sort (fun a b -> compare a.id b.id)
      ({ id = replica_id; weight; outstanding = 0 } :: !g)

let remove_replica t ~key ~replica_id =
  match Hashtbl.find_opt t.groups key with
  | None -> ()
  | Some g -> g := List.filter (fun r -> r.id <> replica_id) !g

let pick t ~key =
  match Hashtbl.find_opt t.groups key with
  | None -> None
  | Some g ->
    List.fold_left
      (fun best r ->
        match best with Some b when load b <= load r -> best | _ -> Some r)
      None !g
    |> Option.map (fun r -> r.id)

let find t ~key ~replica_id =
  match Hashtbl.find_opt t.groups key with
  | None -> None
  | Some g -> List.find_opt (fun r -> r.id = replica_id) !g

let begin_work t ~key ~replica_id n =
  match find t ~key ~replica_id with
  | None -> ()
  | Some r ->
    r.outstanding <- r.outstanding + n;
    t.routed <- t.routed + n

let end_work t ~key ~replica_id n =
  match find t ~key ~replica_id with
  | None -> ()
  | Some r -> r.outstanding <- max 0 (r.outstanding - n)

let outstanding t ~key ~replica_id =
  match find t ~key ~replica_id with None -> 0 | Some r -> r.outstanding

let total_outstanding t =
  Hashtbl.fold
    (fun _ g acc -> List.fold_left (fun a r -> a + r.outstanding) acc !g)
    t.groups 0

let replicas t ~key =
  match Hashtbl.find_opt t.groups key with
  | None -> []
  | Some g -> List.map (fun r -> r.id) !g

let keys t =
  Hashtbl.fold (fun k g acc -> if !g <> [] then k :: acc else acc) t.groups []
  |> List.sort compare

let dispatched t = t.routed
