(* Single pass: accumulate (sum, count) together.  The fold adds the
   samples in the same left-to-right order as the old sum-then-length
   version, so results are bit-identical — [mean] feeds the system
   simulation's deterministic digests. *)
let mean = function
  | [] -> 0.0
  | xs ->
    let sum = ref 0.0 and n = ref 0 in
    List.iter
      (fun x ->
        sum := !sum +. x;
        incr n)
      xs;
    !sum /. float_of_int !n

(* Welford's online algorithm: one pass, no intermediate mean pass,
   and numerically stabler than the naive sum-of-squares shortcut. *)
let stddev = function
  | [] | [ _ ] -> 0.0
  | xs ->
    let n = ref 0 and m = ref 0.0 and m2 = ref 0.0 in
    List.iter
      (fun x ->
        incr n;
        let d = x -. !m in
        m := !m +. (d /. float_of_int !n);
        m2 := !m2 +. (d *. (x -. !m)))
      xs;
    sqrt (!m2 /. float_of_int !n)

(* Ascending in-place sort of a NaN-free float array: the ternary heap
   sort of [Array.sort], step for step, with [Float.compare] inlined
   as float [<] / [>] (equivalent on NaN-free input, ±0 included)
   instead of called through a closure.  So the result is the very
   permutation [Array.sort Float.compare] produces, and no scratch
   array is allocated. *)
let sort_floats (a : float array) =
  let l = Array.length a in
  (* The largest child of [i] in a heap of size [len], -1 for a leaf. *)
  let maxson len i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < len then begin
      let x = if a.(i31) < a.(i31 + 1) then i31 + 1 else i31 in
      if a.(x) < a.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < len && a.(i31) < a.(i31 + 1) then i31 + 1
    else if i31 < len then i31
    else -1
  in
  let trickle len i e =
    let i = ref i and placed = ref false in
    while not !placed do
      let j = maxson len !i in
      if j >= 0 && a.(j) > e then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        placed := true
      end
    done
  in
  let bubble len i =
    let i = ref i and j = ref (maxson len i) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson len !i
    done;
    !i
  in
  let trickleup i e =
    let i = ref i and placed = ref false in
    while not !placed do
      let father = (!i - 1) / 3 in
      if a.(father) < e then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          placed := true
        end
      end
      else begin
        a.(!i) <- e;
        placed := true
      end
    done
  in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* [sort_floats] on [a.(lo .. hi-1)] alone. *)
let sort_range a lo hi =
  if lo = 0 && hi = Array.length a then sort_floats a
  else begin
    let sub = Array.sub a lo (hi - lo) in
    sort_floats sub;
    Array.blit sub 0 a lo (hi - lo)
  end

(* Introselect: moves the [k]-th smallest of [a.(lo .. hi-1)] to index
   [k], with nothing greater before it and nothing smaller after it,
   in expected linear time.  Median-of-three quickselect with a
   three-way partition, so a run of equal samples is settled in one
   pass; after [depth] rounds the range is sorted instead, which
   bounds the worst case at O(n log n).  NaN-free input. *)
let rec select a lo hi k depth =
  if hi - lo > 1 then
    if depth = 0 then sort_range a lo hi
    else begin
      let x = a.(lo) and y = a.((lo + hi) / 2) and z = a.(hi - 1) in
      let pivot =
        if x < y then if y < z then y else if x < z then z else x
        else if x < z then x
        else if y < z then z
        else y
      in
      (* [lo, lt) < pivot, [lt, i) = pivot, [gt, hi) > pivot. *)
      let lt = ref lo and i = ref lo and gt = ref hi in
      while !i < !gt do
        let v = a.(!i) in
        if v < pivot then begin
          a.(!i) <- a.(!lt);
          a.(!lt) <- v;
          incr lt;
          incr i
        end
        else if v > pivot then begin
          decr gt;
          a.(!i) <- a.(!gt);
          a.(!gt) <- v
        end
        else incr i
      done;
      if k < !lt then select a lo !lt k (depth - 1)
      else if k >= !gt then select a !gt hi k (depth - 1)
    end

(* Twice the floor of log2 n: the depth past which [select] sorts. *)
let depth_bound n =
  let rec go d n = if n <= 1 then d else go (d + 2) (n lsr 1) in
  go 0 n

(* -0.0 compares equal to 0.0, so which of the two a rank reads
   depends on the permutation; only the full sort reproduces it. *)
let has_negative_zero (arr : float array) =
  let rec from i =
    i < Array.length arr && ((arr.(i) = 0.0 && Float.sign_bit arr.(i)) || from (i + 1))
  in
  from 0

(* Indexed loops rather than [Array.iter]: a closure over a float array
   boxes every sample it is passed. *)
let reject_nan what (arr : float array) =
  for i = 0 to Array.length arr - 1 do
    if Float.is_nan arr.(i) then invalid_arg ("Stats." ^ what ^ ": NaN sample")
  done

(* Puts the order statistics [ks] (ascending, distinct) of [arr] in
   place: each one is selected from what lies past the previous one.
   With a -0.0 among the samples the whole array is sorted instead. *)
let place_ranks arr ks =
  if has_negative_zero arr then sort_floats arr
  else begin
    let n = Array.length arr in
    let depth = depth_bound n in
    ignore
      (List.fold_left
         (fun from k ->
           select arr from n k depth;
           k + 1)
         0 ks)
  end

(* The fractional rank of percentile [p] among [n] samples, and its
   two closest whole ranks. *)
let rank p n = p /. 100.0 *. float_of_int (n - 1)

let ranks p n =
  let r = rank p n in
  (int_of_float (floor r), int_of_float (ceil r))

(* The percentile [p] of [arr], whose ranks [ranks p] are in place. *)
let interpolate arr p =
  let n = Array.length arr in
  let rank = rank p n in
  let lo, hi = ranks p n in
  if lo = hi then arr.(lo)
  else begin
    let w = rank -. float_of_int lo in
    (arr.(lo) *. (1.0 -. w)) +. (arr.(hi) *. w)
  end

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
    let arr = Array.of_list xs in
    (* Polymorphic compare silently misorders NaN (it sorts below
       every float, skewing every rank), and so would the sort's
       float [<]; reject it. *)
    reject_nan "percentile" arr;
    let lo, hi = ranks p (Array.length arr) in
    place_ranks arr (if lo = hi then [ lo ] else [ lo; hi ]);
    interpolate arr p

let median xs = percentile 50.0 xs

(* Same rank interpolation as [percentile], placing every rank the
   list asks for in one ascending sweep, each selection starting past
   the previous one: at a million samples three separate [percentile]
   calls would mean three selections over the whole array. *)
let percentile_many ps = function
  | [] -> invalid_arg "Stats.percentile_many: empty list"
  | xs ->
    List.iter
      (fun p ->
        if p < 0.0 || p > 100.0 then
          invalid_arg "Stats.percentile_many: p out of range")
      ps;
    let arr = Array.of_list xs in
    reject_nan "percentile_many" arr;
    let n = Array.length arr in
    let ks =
      List.concat_map
        (fun p ->
          let lo, hi = ranks p n in
          [ lo; hi ])
        ps
    in
    place_ranks arr (List.sort_uniq Int.compare ks);
    List.map (interpolate arr) ps

let geomean = function
  | [] -> invalid_arg "Stats.geomean: empty list"
  | xs ->
    let sum_log =
      List.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geomean: non-positive sample";
          acc +. log x)
        0.0 xs
    in
    exp (sum_log /. float_of_int (List.length xs))

module Acc = struct
  (* sum/min/max live in a flat float array: a record mixing an int
     with mutable floats boxes every float store, which costs two
     words per [add] on the simulator hot path. *)
  type t = { mutable count : int; cells : float array }

  let create () = { count = 0; cells = [| 0.0; infinity; neg_infinity |] }

  let reset t =
    t.count <- 0;
    let c = t.cells in
    c.(0) <- 0.0;
    c.(1) <- infinity;
    c.(2) <- neg_infinity

  let add t x =
    t.count <- t.count + 1;
    let c = t.cells in
    c.(0) <- c.(0) +. x;
    if x < c.(1) then c.(1) <- x;
    if x > c.(2) then c.(2) <- x

  let count t = t.count
  let mean t = if t.count = 0 then 0.0 else t.cells.(0) /. float_of_int t.count
  let min t = t.cells.(1)
  let max t = t.cells.(2)
  let sum t = t.cells.(0)
end

module P2 = struct
  (* Jain & Chlamtac's P-squared algorithm: a streaming estimate of a
     single quantile from five markers, O(1) space and allocation-free
     per observation.  Marker heights are adjusted toward their ideal
     positions with a piecewise-parabolic fit. *)
  type t = {
    p : float;
    q : float array; (* marker heights *)
    n : float array; (* marker positions (1-based ranks) *)
    np : float array; (* desired positions *)
    dn : float array; (* desired position increments *)
    mutable count : int;
  }

  let create p =
    if p <= 0.0 || p >= 1.0 then invalid_arg "Stats.P2.create: p outside (0,1)";
    {
      p;
      q = Array.make 5 0.0;
      n = [| 1.0; 2.0; 3.0; 4.0; 5.0 |];
      np = [| 1.0; 1.0 +. (2.0 *. p); 1.0 +. (4.0 *. p); 3.0 +. (2.0 *. p); 5.0 |];
      dn = [| 0.0; p /. 2.0; p; (1.0 +. p) /. 2.0; 1.0 |];
      count = 0;
    }

  let parabolic t i d =
    let q = t.q and n = t.n in
    q.(i)
    +. d
       /. (n.(i + 1) -. n.(i - 1))
       *. (((n.(i) -. n.(i - 1) +. d) *. (q.(i + 1) -. q.(i)) /. (n.(i + 1) -. n.(i)))
          +. ((n.(i + 1) -. n.(i) -. d) *. (q.(i) -. q.(i - 1)) /. (n.(i) -. n.(i - 1))))

  let linear t i d =
    let s = if d > 0.0 then 1 else -1 in
    let q = t.q and n = t.n in
    q.(i) +. (d *. (q.(i + s) -. q.(i)) /. (n.(i + s) -. n.(i)))

  (* Insertion sort of the first five observations. *)
  let seed t x =
    let q = t.q in
    let i = ref (t.count - 1) in
    while !i >= 0 && q.(!i) > x do
      q.(!i + 1) <- q.(!i);
      decr i
    done;
    q.(!i + 1) <- x

  let add t x =
    if t.count < 5 then begin
      seed t x;
      t.count <- t.count + 1
    end
    else begin
      let q = t.q and n = t.n and np = t.np and dn = t.dn in
      let k =
        if x < q.(0) then begin
          q.(0) <- x;
          0
        end
        else if x < q.(1) then 0
        else if x < q.(2) then 1
        else if x < q.(3) then 2
        else if x <= q.(4) then 3
        else begin
          q.(4) <- x;
          3
        end
      in
      for i = k + 1 to 4 do
        n.(i) <- n.(i) +. 1.0
      done;
      for i = 0 to 4 do
        np.(i) <- np.(i) +. dn.(i)
      done;
      for i = 1 to 3 do
        let d = np.(i) -. n.(i) in
        if
          (d >= 1.0 && n.(i + 1) -. n.(i) > 1.0)
          || (d <= -1.0 && n.(i - 1) -. n.(i) < -1.0)
        then begin
          let d = if d >= 1.0 then 1.0 else -1.0 in
          let qp = parabolic t i d in
          let qp = if q.(i - 1) < qp && qp < q.(i + 1) then qp else linear t i d in
          q.(i) <- qp;
          n.(i) <- n.(i) +. d
        end
      done;
      t.count <- t.count + 1
    end

  let count t = t.count

  (* Rewind to the freshly-created state without reallocating the
     marker arrays — windowed telemetry buckets reuse one estimator
     per ring slot, so the steady-state advance path must not
     allocate. *)
  let reset t =
    let p = t.p in
    Array.fill t.q 0 5 0.0;
    t.n.(0) <- 1.0;
    t.n.(1) <- 2.0;
    t.n.(2) <- 3.0;
    t.n.(3) <- 4.0;
    t.n.(4) <- 5.0;
    t.np.(0) <- 1.0;
    t.np.(1) <- 1.0 +. (2.0 *. p);
    t.np.(2) <- 1.0 +. (4.0 *. p);
    t.np.(3) <- 3.0 +. (2.0 *. p);
    t.np.(4) <- 5.0;
    t.count <- 0

  let quantile t =
    if t.count = 0 then 0.0
    else if t.count < 5 then begin
      (* Fall back to the exact rank over the seeded prefix. *)
      let rank = t.p *. float_of_int (t.count - 1) in
      let lo = int_of_float (floor rank) in
      let hi = Stdlib.min (t.count - 1) (lo + 1) in
      let w = rank -. float_of_int lo in
      (t.q.(lo) *. (1.0 -. w)) +. (t.q.(hi) *. w)
    end
    else t.q.(2)
end
