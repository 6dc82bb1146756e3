type config = { max_batch : int; max_linger_us : float }

let config ?(max_batch = 4) ?(max_linger_us = 300.0) () =
  if max_batch < 1 then invalid_arg "Batcher.config: max_batch must be >= 1";
  if max_linger_us < 0.0 then invalid_arg "Batcher.config: negative linger";
  { max_batch; max_linger_us }

type 'a slot = {
  mutable items : 'a list;  (* newest first *)
  mutable count : int;
  mutable opened_us : float;
}

type 'a t = {
  cfg : config;
  slots : (string, 'a slot) Hashtbl.t;
  mutable dispatched : int;
}

let create cfg = { cfg; slots = Hashtbl.create 8; dispatched = 0 }

type 'a outcome = Dispatch of 'a list | Opened of float | Joined

let slot t key =
  match Hashtbl.find_opt t.slots key with
  | Some s -> s
  | None ->
    let s = { items = []; count = 0; opened_us = 0.0 } in
    Hashtbl.replace t.slots key s;
    s

let take t s =
  let batch = List.rev s.items in
  s.items <- [];
  s.count <- 0;
  if batch <> [] then t.dispatched <- t.dispatched + 1;
  batch

let add t ~key ~now_us x =
  let s = slot t key in
  s.items <- x :: s.items;
  s.count <- s.count + 1;
  if s.count >= t.cfg.max_batch then Dispatch (take t s)
  else if s.count = 1 then begin
    s.opened_us <- now_us;
    Opened (now_us +. t.cfg.max_linger_us)
  end
  else Joined

let flush_due t ~key ~now_us =
  match Hashtbl.find_opt t.slots key with
  | None -> []
  | Some s ->
    (* Only the batch whose own deadline has passed is released: a
       timer armed for an earlier, already-dispatched batch fires
       before the current batch's deadline and must not cut its
       linger short. *)
    if s.count > 0 && now_us >= s.opened_us +. t.cfg.max_linger_us -. 1e-9 then
      take t s
    else []

let drain t ~key =
  match Hashtbl.find_opt t.slots key with None -> [] | Some s -> take t s

(* Asked per group on every autoscaler tick: [find] allocates no
   option. *)
let pending t ~key =
  match Hashtbl.find t.slots key with s -> s.count | exception Not_found -> 0

let batches t = t.dispatched
