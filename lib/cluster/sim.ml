module Wheel = Mlv_util.Timing_wheel
module Obs = Mlv_obs.Obs

type t = {
  wheel : Wheel.t;
  now : float ref;
      (* a float ref is an all-float record, so stores stay unboxed;
         a [mutable now : float] field in this mixed record would box
         on every event *)
  mutable processed : int;
  events_counter : Obs.Counter.t;
  scheduled_counter : Obs.Counter.t;
}

let create () =
  {
    wheel = Wheel.create ();
    now = ref 0.0;
    processed = 0;
    events_counter = Obs.Counter.get "sim.events_processed";
    scheduled_counter = Obs.Counter.get "sim.events_scheduled";
  }

let now t = !(t.now)

let schedule t ~delay f =
  if delay < 0.0 then invalid_arg "Sim.schedule: negative delay";
  Obs.Counter.incr t.scheduled_counter;
  Wheel.push t.wheel ~at:(!(t.now) +. delay) f

let schedule_at t ~at f =
  if at < !(t.now) then invalid_arg "Sim.schedule_at: time in the past";
  Obs.Counter.incr t.scheduled_counter;
  Wheel.push t.wheel ~at f

(* [pop_fire] writes the timestamp straight into the [now] ref and
   hands back the thunk: no option, tuple or float box on the
   per-event path.  The caller guarantees the wheel is non-empty. *)
let[@inline] fire t =
  let f = Wheel.pop_fire t.wheel ~into:t.now in
  t.processed <- t.processed + 1;
  Obs.Counter.incr t.events_counter;
  f ()

let step t =
  if Wheel.is_empty t.wheel then false
  else begin
    fire t;
    true
  end

let pending t = Wheel.length t.wheel

(* Earliest pending timestamp, [infinity] when empty; allocation-free
   (no option boxing), which matters in the [run] loop. *)
let next_time t = Wheel.next_time t.wheel

let run ?until t =
  (match until with
  | None -> while not (Wheel.is_empty t.wheel) do fire t done
  | Some limit ->
    while (not (Wheel.is_empty t.wheel)) && Wheel.next_time t.wheel <= limit do
      fire t
    done);
  (* The clock always reaches the limit, whether the queue drained or
     the next event lies beyond it; otherwise utilization windows and
     rate computations against [now] are measured over a short
     interval. *)
  match until with
  | Some limit when !(t.now) < limit -> t.now := limit
  | _ -> ()

let events_processed t = t.processed
