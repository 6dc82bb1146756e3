(* Reference oracle for [Obs.Histogram]: the same log buckets, rank
   rule and min/max clamp, but [percentile] scans all 601 slots and
   [clear] replaces the bucket array and the accumulator with fresh
   ones.  The differential tests check the occupied-range scan and the
   in-place clear against it, bit for bit. *)

let bucket_offset = 300
let bucket_slots = (2 * bucket_offset) + 1

type t = {
  mutable buckets : int array;
  mutable zero_count : int;
  mutable count : int;
  mutable sum : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  {
    buckets = Array.make bucket_slots 0;
    zero_count = 0;
    count = 0;
    sum = 0.0;
    min = infinity;
    max = neg_infinity;
  }

let observe t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v;
  if v <= 0.0 then t.zero_count <- t.zero_count + 1
  else begin
    let b = int_of_float (Float.round (log10 v *. 10.0)) in
    let b =
      if b < -bucket_offset then 0
      else if b > bucket_offset then bucket_slots - 1
      else b + bucket_offset
    in
    t.buckets.(b) <- t.buckets.(b) + 1
  end

let count t = t.count
let sum t = t.sum
let min t = if t.count = 0 then 0.0 else t.min
let max t = if t.count = 0 then 0.0 else t.max

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let target =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
      Stdlib.min t.count (Stdlib.max 1 r)
    in
    if t.zero_count >= target then Float.min 0.0 (min t)
    else begin
      let cum = ref t.zero_count in
      let result = ref None in
      Array.iteri
        (fun i c ->
          cum := !cum + c;
          if !result = None && !cum >= target then
            result := Some (10.0 ** (float_of_int (i - bucket_offset) /. 10.0)))
        t.buckets;
      let r = match !result with Some r -> r | None -> max t in
      Float.min (max t) (Float.max (min t) r)
    end
  end

let clear t =
  t.buckets <- Array.make bucket_slots 0;
  t.zero_count <- 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.min <- infinity;
  t.max <- neg_infinity
