(* Reference oracle for [Mlv_cluster.Sim]: the original event engine,
   a binary heap of boxed entries ([Pqueue], FIFO on equal times).
   Same interface and the same per-event bookkeeping as [Sim] — the
   [now] ref, the processed count, the two [sim.*] counters and the
   [run ?until] clamp — so a comparison of the two measures only the
   queue.  Its [schedule_stream] queues every element up front.
   [test/test_sim_engine.ml] checks event order against it and
   [bench/sim.ml] times it. *)

module Obs = Mlv_obs.Obs

type t = {
  queue : (unit -> unit) Pqueue.t;
  now : float ref;
  mutable processed : int;
  events_counter : Obs.Counter.t;
  scheduled_counter : Obs.Counter.t;
}

let create () =
  {
    queue = Pqueue.create ();
    now = ref 0.0;
    processed = 0;
    events_counter = Obs.Counter.get "sim.events_processed";
    scheduled_counter = Obs.Counter.get "sim.events_scheduled";
  }

let now t = !(t.now)

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Heap_sim.schedule: negative delay";
  Obs.Counter.incr t.scheduled_counter;
  Pqueue.push t.queue (!(t.now) +. delay) f

let schedule_at t ~at f =
  if at < !(t.now) then invalid_arg "Heap_sim.schedule_at: time in the past";
  Obs.Counter.incr t.scheduled_counter;
  Pqueue.push t.queue at f

(* Every element queued up front: the order [Sim.schedule_stream]
   must reproduce. *)
let schedule_stream t ~at f items =
  List.iter (fun x -> schedule_at t ~at:(at x) (fun () -> f x)) items

let step t =
  match Pqueue.pop t.queue with
  | None -> false
  | Some (time, f) ->
    t.now := time;
    t.processed <- t.processed + 1;
    Obs.Counter.incr t.events_counter;
    f ();
    true

let pending t = Pqueue.length t.queue
let next_time t = Pqueue.peek_prio t.queue

let run ?until t =
  (match until with
  | None -> while step t do () done
  | Some limit ->
    while pending t > 0 && next_time t <= limit do
      ignore (step t)
    done);
  match until with
  | Some limit when !(t.now) < limit -> t.now := limit
  | _ -> ()

let events_processed t = t.processed
