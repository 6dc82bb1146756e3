type config = { max_batch : int; max_linger_us : float }

let config ?(max_batch = 4) ?(max_linger_us = 300.0) () =
  if max_batch < 1 then invalid_arg "Batcher.config: max_batch must be >= 1";
  if max_linger_us < 0.0 then invalid_arg "Batcher.config: negative linger";
  { max_batch; max_linger_us }

type 'a t = { cfg : config; mutable dispatched : int }

type 'a slot = {
  owner : 'a t;
  mutable items : 'a list;  (* newest first *)
  mutable count : int;
  mutable opened_us : float;
}

let create cfg = { cfg; dispatched = 0 }
let slot t = { owner = t; items = []; count = 0; opened_us = 0.0 }

type 'a outcome = Dispatch of 'a list | Opened of float | Joined

let take s =
  let batch = List.rev s.items in
  s.items <- [];
  s.count <- 0;
  if batch <> [] then s.owner.dispatched <- s.owner.dispatched + 1;
  batch

let add s ~now_us x =
  let cfg = s.owner.cfg in
  s.items <- x :: s.items;
  s.count <- s.count + 1;
  if s.count >= cfg.max_batch then Dispatch (take s)
  else if s.count = 1 then begin
    s.opened_us <- now_us;
    Opened (now_us +. cfg.max_linger_us)
  end
  else Joined

(* Only the batch whose own deadline has passed is released: a timer
   armed for an earlier, already-dispatched batch fires before the
   current batch's deadline and must not cut its linger short. *)
let flush_due s ~now_us =
  if s.count > 0 && now_us >= s.opened_us +. s.owner.cfg.max_linger_us -. 1e-9 then
    take s
  else []

let drain s = take s
let pending s = s.count
let batches t = t.dispatched
