(* Reference oracle for [Mlv_cluster.Sim]: the original event engine,
   a binary heap of closures ([Mlv_util.Pqueue], FIFO on equal
   times).  Same interface and the same per-event bookkeeping as the
   timing-wheel engine — the [now] ref, the processed count, the two
   [sim.*] counters, the span sim clock, and the [run ?until] clamp —
   so a comparison of the two measures only the queue.
   [test/test_sim_engine.ml] checks event order against it and
   [bench/sim.ml] times it. *)

module Pqueue = Mlv_util.Pqueue
module Obs = Mlv_obs.Obs

type t = {
  queue : (unit -> unit) Pqueue.t;
  now : float ref;
  mutable processed : int;
  events_counter : Obs.Counter.t;
  scheduled_counter : Obs.Counter.t;
  clock : unit -> float;
}

let create () =
  let now = ref 0.0 in
  let t =
    {
      queue = Pqueue.create ();
      now;
      processed = 0;
      events_counter = Obs.Counter.get "sim.events_processed";
      scheduled_counter = Obs.Counter.get "sim.events_scheduled";
      clock = (fun () -> !now);
    }
  in
  Obs.set_sim_clock t.clock;
  t

let release t = Obs.clear_sim_clock_of t.clock
let now t = !(t.now)

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Heap_sim.schedule: negative delay";
  Obs.Counter.incr t.scheduled_counter;
  Pqueue.push t.queue (!(t.now) +. delay) f

let schedule_at t ~at f =
  if at < !(t.now) then invalid_arg "Heap_sim.schedule_at: time in the past";
  Obs.Counter.incr t.scheduled_counter;
  Pqueue.push t.queue at f

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
