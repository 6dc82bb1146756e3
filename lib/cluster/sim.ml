module Obs = Mlv_obs.Obs

(* A binary min-heap over three parallel arrays, ordered by (time,
   seq): [times] is an unboxed [Float.Array], so neither a push nor a
   pop boxes a float, and [seqs] breaks ties in scheduling order.
   Slots at index >= [size] hold [noop], so a popped thunk (and
   whatever deployment it captures) is not kept alive by the array. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable thunks : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  now : float ref;
      (* a float ref is an all-float record, so stores stay unboxed;
         a [mutable now : float] field in this mixed record would box
         on every event *)
  mutable processed : int;
  events_counter : Obs.Counter.t;
  scheduled_counter : Obs.Counter.t;
}

let noop () = ()

let create () =
  {
    times = Float.Array.make 16 0.0;
    seqs = Array.make 16 0;
    thunks = Array.make 16 noop;
    size = 0;
    next_seq = 0;
    now = ref 0.0;
    processed = 0;
    events_counter = Obs.Counter.get "sim.events_processed";
    scheduled_counter = Obs.Counter.get "sim.events_scheduled";
  }

let now t = !(t.now)

let grow t =
  let cap = 2 * Array.length t.seqs in
  let times = Float.Array.make cap 0.0 in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let thunks = Array.make cap noop in
  Array.blit t.thunks 0 thunks 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.thunks <- thunks

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.thunks dst (Array.unsafe_get t.thunks src)

(* Slot [i] fires before the key ([at], [seq]). *)
let[@inline] before t i (at : float) seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < at || (ti = at && Array.unsafe_get t.seqs i < seq)

(* Sift a hole up from the end and fill it with the new event.  The
   whole (time, seq) key takes part: a streamed element carries the
   sequence number reserved when its stream was scheduled, which can
   be smaller than that of an event already queued at the same time. *)
let push t ~at ~seq f =
  if t.size = Array.length t.seqs then grow t;
  let i = ref t.size in
  t.size <- t.size + 1;
  let climbing = ref true in
  while !climbing && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t parent at seq then climbing := false
    else begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
  done;
  Float.Array.unsafe_set t.times !i at;
  Array.unsafe_set t.seqs !i seq;
  Array.unsafe_set t.thunks !i f

(* Remove the earliest event, write its time straight into the [now]
   ref and hand back its thunk: no option, tuple or float box on the
   per-event path.  The last slot's event fills the hole the root
   leaves, sifted down.  The caller guarantees the heap is non-empty. *)
let pop_into_now t =
  let f = Array.unsafe_get t.thunks 0 in
  t.now := Float.Array.unsafe_get t.times 0;
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let at = Float.Array.unsafe_get t.times n and seq = Array.unsafe_get t.seqs n in
    let g = Array.unsafe_get t.thunks n in
    let i = ref 0 and sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && before t r (Float.Array.unsafe_get t.times l) (Array.unsafe_get t.seqs l)
          then r
          else l
        in
        if before t c at seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sinking := false
      end
    done;
    Float.Array.unsafe_set t.times !i at;
    Array.unsafe_set t.seqs !i seq;
    Array.unsafe_set t.thunks !i g
  end;
  Array.unsafe_set t.thunks n noop;
  f

let[@inline] fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let schedule t ~delay f =
  if not (delay >= 0.0) then invalid_arg "Sim.schedule: negative or NaN delay";
  Obs.Counter.incr t.scheduled_counter;
  push t ~at:(!(t.now) +. delay) ~seq:(fresh_seq t) f

let schedule_at t ~at f =
  if not (at >= !(t.now)) then invalid_arg "Sim.schedule_at: time in the past or NaN";
  Obs.Counter.incr t.scheduled_counter;
  push t ~at ~seq:(fresh_seq t) f

(* Element [x] of a stream fires with sequence number [seq]; just
   before its handler runs, the next element is queued with [seq + 1],
   the number reserved for it. *)
let rec stream_event t at handler seq x rest () =
  (match rest with
  | [] -> ()
  | y :: rest ->
    push t ~at:(at y) ~seq:(seq + 1) (stream_event t at handler (seq + 1) y rest));
  handler x

(* The length of [items], checked to be in order from [prev] on. *)
let rec stream_length at prev n = function
  | [] -> n
  | x :: rest ->
    let time = at x in
    if not (time >= prev) then
      invalid_arg "Sim.schedule_stream: time in the past, NaN or out of order";
    stream_length at time (n + 1) rest

let schedule_stream t ~at handler items =
  let n = stream_length at !(t.now) 0 items in
  match items with
  | [] -> ()
  | first :: rest ->
    let seq = t.next_seq in
    t.next_seq <- seq + n;
    Obs.Counter.add t.scheduled_counter n;
    push t ~at:(at first) ~seq (stream_event t at handler seq first rest)

let[@inline] fire t =
  let f = pop_into_now t in
  t.processed <- t.processed + 1;
  Obs.Counter.incr t.events_counter;
  f ()

let step t =
  if t.size = 0 then false
  else begin
    fire t;
    true
  end

let pending t = t.size

(* Earliest pending timestamp, [infinity] when empty; allocation-free
   (no option boxing), which matters in the [run] loop. *)
let next_time t = if t.size = 0 then infinity else Float.Array.unsafe_get t.times 0

let run ?until t =
  (match until with
  | None -> while t.size > 0 do fire t done
  | Some limit ->
    while t.size > 0 && Float.Array.unsafe_get t.times 0 <= limit do
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
