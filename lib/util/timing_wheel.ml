(* Three-level hierarchical timing wheel with an overflow (calendar)
   list for events beyond the horizon.

   Buckets are absolute: bucket b covers times [b*g, (b+1)*g).  Level
   l holds a bucket in slot (b >> bits*l) land slot_mask when that
   bucket falls inside the level's sliding window relative to the
   cursor.  When the cursor crosses a [nslots] boundary the due slot
   of each affected level is cascaded down; at every horizon boundary
   (2^(3*bits) buckets) and on rebase the overflow list is
   re-inserted.  Because the time→bucket map is monotone and each
   extracted bucket is sorted by exact (time, seq), pop order matches
   a binary heap with FIFO ties for any granularity.

   Layout is driven by the cache behaviour of a large backlog (the
   arena no longer fits in cache, so performance is bounded by how
   many distinct lines an event touches and how many of those loads
   can be in flight at once):

   - Event cells are ints into one interleaved arena row of four
     words — bucket, time key, FIFO sequence, free/overflow link — so
     every field a cascade, sort or pop needs sits on one cache line.
     Timestamps are stored as order-preserving integer keys (IEEE
     bits of a non-negative float, sign-flipped into OCaml's 63-bit
     int range), making comparisons integer compares and sparing a
     separate unboxed float array; the exact float is recovered only
     when an event is popped.
   - Wheel slots hold growable vectors of cell ids, not linked lists:
     draining a slot iterates an array, so the per-cell arena reads
     are independent loads the CPU can overlap, where a pointer chase
     would serialize one full miss per cell.
   - When a cell lands in level 0 (it will pop within the current
     window) its thunk is touched once; that load overlaps the
     cascade and leaves the closure line in cache for the pop.
   - Level 0 keeps an occupancy bitmap: one bit per slot in 32-bit
     words, plus a summary word with one bit per non-empty word.
     Finding the next occupied slot is a few word operations instead
     of a read of every empty slot, so sparse streams (one event per
     hundreds of buckets) do not pay for the simulated time between
     events.

   Freed cells drop their closure immediately so popped events don't
   pin captured state. *)

let bits = 11
let nslots = 1 lsl bits
let slot_mask = nslots - 1
let horizon_mask = (1 lsl (3 * bits)) - 1

(* Level-0 occupancy: [nwords] 32-bit words of slot bits and
   [nsummary] 32-bit words of word bits. *)
let nwords = nslots lsr 5
let nsummary = (nwords + 31) lsr 5

(* Clamp for huge / infinite timestamps: ordering within a bucket is
   by exact time, so collapsing the far tail into one bucket is
   harmless. *)
let max_bucket = max_int / 4

let noop () = ()
let nil = -1

(* Shared zero-length slot vector: a slot's array is only replaced
   (never written) while its live length is 0. *)
let empty_vec : int array = [||]

(* Monotone, exact int encoding of a non-negative float time.  The
   IEEE bit pattern of a non-negative double compares like the value
   and fits 63 bits; [to_int] wraps it into OCaml's int and the
   sign-bit flip restores the order across the wrap.  Equal keys ⟺
   equal times (no -0.0 or NaN reaches the arena), so the FIFO
   tie-break semantics are untouched.  [key_of_time] compiles
   allocation-free; [time_of_key]'s Int64 chain stays in registers at
   its (local, inlined) call sites, so the decode at pop does not
   allocate either. *)
let key_of_time (x : float) : int = Int64.to_int (Int64.bits_of_float x) lxor min_int

let time_of_key (k : int) : float =
  Int64.float_of_bits (Int64.logand (Int64.of_int (k lxor min_int)) Int64.max_int)

type t = {
  gran : float;
  inv_gran : float;
      (* multiplying by the reciprocal is several times cheaper than
         dividing per insertion; the map stays monotone, which is all
         bucket assignment needs *)
  mutable cells : int array;
      (* stride 4: [4i] = bucket, [4i+1] = time key, [4i+2] = FIFO
         sequence, [4i+3] = next cell in overflow / free list *)
  mutable fns : (unit -> unit) array; (* event thunk *)
  mutable cap : int;
  mutable free : int; (* free-list head *)
  vecs : int array array array; (* [level].[slot] -> resident cell ids *)
  vlens : int array array; (* [level].[slot] -> live prefix of the vector *)
  level_count : int array; (* cells resident per level *)
  occ : int array; (* bit [s land 31] of word [s lsr 5]: level-0 slot s is non-empty *)
  occ_sum : int array; (* bit [w land 31] of word [w lsr 5]: [occ.(w)] is non-zero *)
  mutable cur : int; (* next bucket not yet extracted *)
  mutable batch : int array; (* current bucket, sorted cell ids *)
  mutable scratch : int array; (* mergesort scratch, same length as batch *)
  mutable batch_len : int;
  mutable batch_pos : int;
  mutable batch_bucket : int; (* bucket the live batch was extracted from *)
  mutable overflow : int; (* far-future list head *)
  mutable overflow_count : int;
  mutable overflow_min : int; (* min time key on the overflow list *)
  mutable next_boundary : int;
      (* smallest multiple of [nslots] whose cascade work is still
         pending; the cursor must never pass it without cascading,
         whichever path advanced the cursor *)
  mutable size : int;
  mutable next_seq : int;
  mutable warm : int;
      (* sink for the cache-warming load in [insert_cell]; never read
         meaningfully *)
}

let key_inf = key_of_time infinity

let init_free_list cells lo hi =
  (* Chain cells [lo, hi) into a free list ending in [nil]. *)
  for i = lo to hi - 2 do
    cells.((4 * i) + 3) <- i + 1
  done;
  cells.((4 * (hi - 1)) + 3) <- nil

let create ?(granularity_us = 1.0) () =
  if not (granularity_us > 0.0) then
    invalid_arg "Timing_wheel.create: granularity must be positive";
  let cap = 256 in
  let cells = Array.make (4 * cap) nil in
  init_free_list cells 0 cap;
  {
    gran = granularity_us;
    inv_gran = 1.0 /. granularity_us;
    cells;
    fns = Array.make cap noop;
    cap;
    free = 0;
    vecs = Array.init 3 (fun _ -> Array.make nslots empty_vec);
    vlens = Array.init 3 (fun _ -> Array.make nslots 0);
    level_count = Array.make 3 0;
    occ = Array.make nwords 0;
    occ_sum = Array.make nsummary 0;
    cur = 0;
    batch = Array.make 64 0;
    scratch = Array.make 64 0;
    batch_len = 0;
    batch_pos = 0;
    batch_bucket = -1;
    overflow = nil;
    overflow_count = 0;
    overflow_min = key_inf;
    next_boundary = nslots;
    size = 0;
    next_seq = 0;
    warm = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

let bucket t time =
  let b = time *. t.inv_gran in
  if b >= float_of_int max_bucket then max_bucket else int_of_float b

(* -- arena ---------------------------------------------------------- *)

let grow_arena t =
  let ncap = 2 * t.cap in
  let cells = Array.make (4 * ncap) nil in
  Array.blit t.cells 0 cells 0 (4 * t.cap);
  let fns = Array.make ncap noop in
  Array.blit t.fns 0 fns 0 t.cap;
  init_free_list cells t.cap ncap;
  t.cells <- cells;
  t.fns <- fns;
  t.free <- t.cap;
  t.cap <- ncap

let alloc_cell t =
  if t.free = nil then grow_arena t;
  let i = t.free in
  t.free <- t.cells.((4 * i) + 3);
  i

let free_cell t i =
  (* Drop the closure now: a recycled cell must not keep the popped
     event's captured state alive. *)
  t.fns.(i) <- noop;
  t.cells.((4 * i) + 3) <- t.free;
  t.free <- i

(* -- batch (the bucket currently being consumed) -------------------- *)

let grow_batch t n =
  let len = Array.length t.batch in
  if len < n then begin
    let ncap = max n (2 * len) in
    let batch = Array.make ncap 0 in
    Array.blit t.batch 0 batch 0 t.batch_len;
    t.batch <- batch;
    t.scratch <- Array.make ncap 0
  end

(* Sort batch[0..n) by (time key, seq), bottom-up mergesort over
   reusable scratch.  The comparison embeds the tie-break, so
   stability is not required. *)
let sort_batch t n =
  if n > 1 then begin
    let cells = t.cells in
    let strictly_before a b =
      let ka = cells.((4 * a) + 1) and kb = cells.((4 * b) + 1) in
      ka < kb || (ka = kb && cells.((4 * a) + 2) < cells.((4 * b) + 2))
    in
    let src = ref t.batch and dst = ref t.scratch in
    let width = ref 1 in
    while !width < n do
      let a = !src and b = !dst in
      let i = ref 0 in
      while !i < n do
        let lo = !i in
        let mid = min n (lo + !width) in
        let hi = min n (lo + (2 * !width)) in
        let l = ref lo and r = ref mid and k = ref lo in
        while !l < mid && !r < hi do
          if strictly_before a.(!r) a.(!l) then begin
            b.(!k) <- a.(!r);
            incr r
          end
          else begin
            b.(!k) <- a.(!l);
            incr l
          end;
          incr k
        done;
        while !l < mid do
          b.(!k) <- a.(!l);
          incr l;
          incr k
        done;
        while !r < hi do
          b.(!k) <- a.(!r);
          incr r;
          incr k
        done;
        i := hi
      done;
      let tmp = !src in
      src := !dst;
      dst := tmp;
      width := 2 * !width
    done;
    if !src != t.batch then Array.blit !src 0 t.batch 0 n
  end

(* A push whose bucket is not after the batch bucket must join the
   live batch (the cursor has already moved past that bucket).  The
   new cell carries the highest sequence number, and its time is >=
   the last popped time, so its slot is within [batch_pos, batch_len]:
   shift the tail right and drop it in. *)
let merge_into_batch t i =
  grow_batch t (t.batch_len + 1);
  let cells = t.cells in
  let ck = cells.((4 * i) + 1) and cs = cells.((4 * i) + 2) in
  let batch = t.batch in
  let p = ref t.batch_len in
  while
    !p > t.batch_pos
    &&
    let j = batch.(!p - 1) in
    let jk = cells.((4 * j) + 1) in
    jk > ck || (jk = ck && cells.((4 * j) + 2) > cs)
  do
    batch.(!p) <- batch.(!p - 1);
    decr p
  done;
  batch.(!p) <- i;
  t.batch_len <- t.batch_len + 1

(* -- level-0 occupancy bitmap ---------------------------------------- *)

(* Count of trailing zeros of a non-zero 32-bit word: isolate the
   lowest set bit and index a de Bruijn table (OCaml 5.1 has no ctz
   primitive).  The product stays below 2^59, so it is exact in a
   63-bit int; [land 31] keeps the five bits a uint32 product would. *)
let debruijn =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23; 21; 19;
    16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let ctz32 x = debruijn.((((x land -x) * 0x077CB531) lsr 27) land 31)

let mark_occupied t slot =
  let w = slot lsr 5 in
  let word = t.occ.(w) in
  t.occ.(w) <- word lor (1 lsl (slot land 31));
  if word = 0 then
    t.occ_sum.(w lsr 5) <- t.occ_sum.(w lsr 5) lor (1 lsl (w land 31))

let mark_empty t slot =
  let w = slot lsr 5 in
  let word = t.occ.(w) land lnot (1 lsl (slot land 31)) in
  t.occ.(w) <- word;
  if word = 0 then
    t.occ_sum.(w lsr 5) <- t.occ_sum.(w lsr 5) land lnot (1 lsl (w land 31))

(* First non-empty word at index >= [w], or -1. *)
let rec next_word t w =
  if w >= nwords then -1
  else begin
    let k = w lsr 5 in
    let m = t.occ_sum.(k) land (-1 lsl (w land 31)) in
    if m <> 0 then (k lsl 5) + ctz32 m else next_word t ((k + 1) lsl 5)
  end

(* First non-empty level-0 slot at index >= [slot], or -1. *)
let next_occupied t slot =
  let w = slot lsr 5 in
  let m = t.occ.(w) land (-1 lsl (slot land 31)) in
  if m <> 0 then (w lsl 5) + ctz32 m
  else begin
    let w' = next_word t (w + 1) in
    if w' < 0 then -1 else (w' lsl 5) + ctz32 t.occ.(w')
  end

(* -- wheel insertion ------------------------------------------------ *)

(* Append cell [i] to the slot's vector.  Slots hold growable arrays
   rather than linked lists so that cascades iterate resident cells
   with independent loads: a pointer chase would serialize one cache
   miss per cell, while the vector lets several arena reads be in
   flight at once. *)
let put t level slot i =
  let vec = t.vecs.(level).(slot) in
  let len = t.vlens.(level).(slot) in
  let vec =
    if len = Array.length vec then begin
      let nvec = Array.make (max 8 (2 * len)) 0 in
      Array.blit vec 0 nvec 0 len;
      t.vecs.(level).(slot) <- nvec;
      nvec
    end
    else vec
  in
  vec.(len) <- i;
  if len = 0 && level = 0 then mark_occupied t slot;
  t.vlens.(level).(slot) <- len + 1;
  t.level_count.(level) <- t.level_count.(level) + 1

(* File cell [i] (bucket already stored in the arena): into the live
   batch if the cursor has passed its bucket, else into the lowest
   level whose sliding window covers it, else onto the overflow
   list.  Cascades re-run this as windows shift. *)
let insert_cell t i =
  let b0 = t.cells.(4 * i) in
  if b0 <= t.batch_bucket then merge_into_batch t i
  else if b0 - t.cur < nslots then begin
    (* The cell will be popped within this window: touch its thunk now
       so the pop finds the closure line in cache.  The load doesn't
       feed the cascade loop, so it overlaps the other misses instead
       of adding latency. *)
    if t.fns.(i) == noop then t.warm <- t.warm + 1;
    put t 0 (b0 land slot_mask) i
  end
  else begin
    let b1 = b0 lsr bits in
    if b1 - (t.cur lsr bits) < nslots then put t 1 (b1 land slot_mask) i
    else begin
      let b2 = b0 lsr (2 * bits) in
      if b2 - (t.cur lsr (2 * bits)) < nslots then put t 2 (b2 land slot_mask) i
      else begin
        t.cells.((4 * i) + 3) <- t.overflow;
        t.overflow <- i;
        t.overflow_count <- t.overflow_count + 1;
        let k = t.cells.((4 * i) + 1) in
        if k < t.overflow_min then t.overflow_min <- k
      end
    end
  end

let cascade t level slot =
  let vec = t.vecs.(level).(slot) in
  let n = t.vlens.(level).(slot) in
  t.vlens.(level).(slot) <- 0;
  t.level_count.(level) <- t.level_count.(level) - n;
  (* Re-filing only moves cells strictly down the hierarchy (the due
     slot's window has shifted below this level), so the vector is
     never appended to while it is being drained. *)
  for k = 0 to n - 1 do
    insert_cell t vec.(k)
  done

(* The overflow walk is tail-recursive over unboxed ints rather than
   a [while] loop over a [ref]: without flambda a [ref] is a real
   2-word heap cell per call. *)
let rec walk_refill t i =
  if i <> nil then begin
    let next = t.cells.((4 * i) + 3) in
    insert_cell t i;
    walk_refill t next
  end

let refill_overflow t =
  if t.overflow <> nil then begin
    let head = t.overflow in
    t.overflow <- nil;
    t.overflow_count <- 0;
    t.overflow_min <- key_inf;
    walk_refill t head
  end

(* All wheel levels are empty but the overflow list is not: jump the
   cursor straight to the earliest overflow event (safe precisely
   because the wheels are empty) and fold the list back in.  With
   empty wheels there is no pending cascade work, so the boundary
   tracker fast-forwards past the jumped-over region instead of
   walking it. *)
let rebase t =
  let b = bucket t (time_of_key t.overflow_min) in
  if b > t.cur then t.cur <- b;
  t.next_boundary <- ((t.cur lsr bits) + 1) lsl bits;
  refill_overflow t

(* Extract bucket [b] of level 0 into the batch, sorted.  [seek] only
   picks a slot whose occupancy bit is set; an empty one means the
   bitmap is out of step with the slots, and the cursor would skip
   the cells whose bits were lost. *)
let extract t b =
  let slot = b land slot_mask in
  let vec = t.vecs.(0).(slot) in
  let n = t.vlens.(0).(slot) in
  if n = 0 then failwith "Timing_wheel.extract: occupancy bit set on an empty slot";
  t.vlens.(0).(slot) <- 0;
  mark_empty t slot;
  t.level_count.(0) <- t.level_count.(0) - n;
  grow_batch t n;
  Array.blit vec 0 t.batch 0 n;
  t.batch_pos <- 0;
  t.batch_len <- n;
  sort_batch t n;
  t.batch_bucket <- b;
  t.cur <- b + 1

(* Cascade work due at boundary [m] (a multiple of [nslots]): fold
   due higher-level slots (and, at horizon boundaries, the overflow
   list) down the hierarchy.  Level 2 first so its cells can land in
   the level-1 slot about to cascade. *)
let boundary t m =
  if m land horizon_mask = 0 then refill_overflow t;
  if m land ((nslots * nslots) - 1) = 0 && t.level_count.(2) > 0 then
    cascade t 2 ((m lsr (2 * bits)) land slot_mask);
  if t.level_count.(1) > 0 then cascade t 1 ((m lsr bits) land slot_mask)

(* The first non-empty bucket in [s, win_end), -1 when the window
   remainder is empty.  The window is the rest of one aligned
   [nslots]-bucket block ([win_end] is the block's end), so its slots
   are [s land slot_mask] up to the last one, in bucket order.  A
   level-0 cell of the next block wraps to a lower slot index and is
   not seen until the cursor reaches that block. *)
let scan_window t s win_end =
  (* On a dense stream the cursor's own slot is usually occupied. *)
  if t.vlens.(0).(s land slot_mask) <> 0 then s
  else begin
    let slot = next_occupied t (s land slot_mask) in
    if slot < 0 then -1 else win_end - nslots + slot
  end

(* Find and extract the next non-empty bucket.  Precondition: the
   batch is exhausted and the wheel is not empty.  [misses] counts
   the windows scanned in vain while level 0 held cells: a level-0
   cell lies within [nslots] buckets of the cursor it was filed
   against, so it is in the current window or the next, and a third
   window means the occupancy bitmap lost it. *)
let rec seek t misses =
  if t.size = t.overflow_count then rebase t;
  (* The cursor may have crossed a boundary on any path (extract sets
     [cur <- b + 1], which can land exactly on one); run the pending
     cascades before trusting the level-0 window. *)
  while t.next_boundary <= t.cur do
    boundary t t.next_boundary;
    t.next_boundary <- t.next_boundary + nslots
  done;
  (* Scan the remainder of the current level-0 window. *)
  let win_end = t.next_boundary in
  let found =
    if t.level_count.(0) > 0 then scan_window t t.cur win_end
    else -1
  in
  if found >= 0 then extract t found
  else begin
    let misses = if t.level_count.(0) > 0 then misses + 1 else misses in
    if misses >= 2 then
      failwith
        "Timing_wheel.seek: level-0 cells found in no window within two of the cursor \
         (occupancy bitmap out of step)";
    t.cur <- win_end;
    seek t misses
  end

let advance t =
  if t.size = 0 then false
  else begin
    seek t 0;
    true
  end

(* -- public API ----------------------------------------------------- *)

let push t ~at f =
  if not (at >= 0.0) then
    invalid_arg "Timing_wheel.push: time must be non-negative (not NaN)";
  let i = alloc_cell t in
  let base = 4 * i in
  t.cells.(base) <- bucket t at;
  t.cells.(base + 1) <- key_of_time at;
  t.cells.(base + 2) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.fns.(i) <- f;
  t.size <- t.size + 1;
  insert_cell t i

let ready t = t.batch_pos < t.batch_len || advance t

let next_time t =
  if ready t then time_of_key t.cells.((4 * t.batch.(t.batch_pos)) + 1)
  else infinity

let pop t =
  if not (ready t) then None
  else begin
    let i = t.batch.(t.batch_pos) in
    t.batch_pos <- t.batch_pos + 1;
    t.size <- t.size - 1;
    let time = time_of_key t.cells.((4 * i) + 1) and f = t.fns.(i) in
    free_cell t i;
    Some (time, f)
  end

let pop_fire t ~into =
  if not (ready t) then invalid_arg "Timing_wheel.pop_fire: empty wheel"
  else begin
    let i = t.batch.(t.batch_pos) in
    t.batch_pos <- t.batch_pos + 1;
    t.size <- t.size - 1;
    into := time_of_key t.cells.((4 * i) + 1);
    let f = t.fns.(i) in
    free_cell t i;
    f
  end

let clear t =
  Array.iter (fun vlens -> Array.fill vlens 0 nslots 0) t.vlens;
  Array.fill t.occ 0 nwords 0;
  Array.fill t.occ_sum 0 nsummary 0;
  Array.fill t.level_count 0 3 0;
  Array.fill t.fns 0 t.cap noop;
  init_free_list t.cells 0 t.cap;
  t.free <- 0;
  t.cur <- 0;
  t.batch_len <- 0;
  t.batch_pos <- 0;
  t.batch_bucket <- -1;
  t.overflow <- nil;
  t.overflow_count <- 0;
  t.overflow_min <- key_inf;
  t.next_boundary <- nslots;
  t.size <- 0
