(* Reference oracle for [Mlv_sysim.Flight_table]: the original linear
   table, a cons list of entries (newest first) filtered per removal
   and partitioned per crash.  The differential test checks the
   linked-list table with its per-node index against it op by op. *)

type 'a entry = { value : 'a; nodes : int list; mutable live : bool }

type 'a t = { mutable entries : 'a entry list; mutable size : int }

let create () = { entries = []; size = 0 }
let value e = e.value
let live e = e.live
let size t = t.size

let add t x ~nodes =
  let e = { value = x; nodes; live = true } in
  t.entries <- e :: t.entries;
  t.size <- t.size + 1;
  e

let remove t e =
  if e.live then begin
    e.live <- false;
    t.size <- t.size - 1;
    t.entries <- List.filter (fun x -> x != e) t.entries
  end

let take_node t node =
  let hit, alive = List.partition (fun e -> List.mem node e.nodes) t.entries in
  t.entries <- alive;
  List.iter
    (fun e ->
      e.live <- false;
      t.size <- t.size - 1)
    hit;
  hit

let to_list t = t.entries
