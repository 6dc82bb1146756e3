open Mlv_isa
module Board = Mlv_fpga.Board

type part_layout = {
  kind : Codegen.kind;
  hidden : int;
  input : int;
  timesteps : int;
  parts : int;
  part : int;
  slice : int;
  weights : Codegen.weight_spec list;
  x_base : int;
  h_out_base : int;
  sync_base : int;
  dram_words : int;
}

(* Sync channel addressing: one slot per (timestep, channel).  LSTM
   uses one channel (h), GRU two (r o h, then h). *)
let channels = function Codegen.Lstm -> 1 | Codegen.Gru -> 2
let sync_addr lay t chan = lay.sync_base + (t * channels lay.kind) + chan

let make_layout kind ~hidden ~input ~timesteps ~parts ~part =
  if parts < 2 then invalid_arg "Scale_out: parts must be >= 2";
  if part < 0 || part >= parts then invalid_arg "Scale_out: part out of range";
  if hidden mod parts <> 0 then invalid_arg "Scale_out: parts must divide hidden";
  let slice = hidden / parts in
  let nw = match kind with Codegen.Lstm -> 8 | Codegen.Gru -> 6 in
  let weights = ref [] in
  let addr = ref 0 in
  for i = 0 to nw - 1 do
    let cols = if i < nw / 2 then input else hidden in
    weights := { Codegen.mreg = i; addr = !addr; rows = slice; cols } :: !weights;
    addr := !addr + (slice * cols)
  done;
  let x_base = !addr in
  let h_out_base = x_base + (timesteps * input) in
  let dram_words = h_out_base + (timesteps * slice) in
  {
    kind;
    hidden;
    input;
    timesteps;
    parts;
    part;
    slice;
    weights = List.rev !weights;
    x_base;
    h_out_base;
    sync_base = dram_words + 1024;
    dram_words;
  }

(* Register map: v0 x | v1 full h | v2 c-slice (LSTM) / ones-slice
   (GRU) | v3-v6 gate slices | v8 temp | v9 full r.h (GRU) | v10-v13
   temps | v14 own h slice.  Each step hands its instructions to
   [emit] in program order. *)

let lstm_step lay t emit =
  let sl = lay.slice in
  emit (Instr.V_rd { dst = 0; addr = lay.x_base + (t * lay.input); len = lay.input });
  emit (Instr.Mvm { dst = 3; mat = 0; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 4; src = 1 });
  emit (Instr.Vv_add { dst = 3; a = 3; b = 8 });
  emit (Instr.Mvm { dst = 4; mat = 1; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 5; src = 1 });
  emit (Instr.Vv_add { dst = 4; a = 4; b = 8 });
  emit (Instr.Mvm { dst = 5; mat = 2; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 6; src = 1 });
  emit (Instr.Vv_add { dst = 5; a = 5; b = 8 });
  emit (Instr.Mvm { dst = 6; mat = 3; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 7; src = 1 });
  emit (Instr.Vv_add { dst = 6; a = 6; b = 8 });
  emit (Instr.Act { dst = 3; src = 3; f = Instr.Sigmoid });
  emit (Instr.Act { dst = 4; src = 4; f = Instr.Sigmoid });
  emit (Instr.Act { dst = 5; src = 5; f = Instr.Tanh });
  emit (Instr.Act { dst = 6; src = 6; f = Instr.Sigmoid });
  emit (Instr.Vv_mul { dst = 10; a = 4; b = 2 });
  emit (Instr.Vv_mul { dst = 11; a = 3; b = 5 });
  emit (Instr.Vv_add { dst = 2; a = 10; b = 11 });
  emit (Instr.Act { dst = 12; src = 2; f = Instr.Tanh });
  emit (Instr.Vv_mul { dst = 14; a = 6; b = 12 });
  emit (Instr.V_wr { src = 14; addr = lay.h_out_base + (t * sl); len = sl });
  emit (Instr.V_wr { src = 14; addr = sync_addr lay t 0; len = sl });
  emit (Instr.V_rd { dst = 1; addr = sync_addr lay t 0; len = lay.hidden })

let gru_step lay t emit =
  let sl = lay.slice in
  emit (Instr.V_rd { dst = 0; addr = lay.x_base + (t * lay.input); len = lay.input });
  (* r slice *)
  emit (Instr.Mvm { dst = 3; mat = 0; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 3; src = 1 });
  emit (Instr.Vv_add { dst = 3; a = 3; b = 8 });
  emit (Instr.Act { dst = 3; src = 3; f = Instr.Sigmoid });
  (* z slice *)
  emit (Instr.Mvm { dst = 4; mat = 1; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 4; src = 1 });
  emit (Instr.Vv_add { dst = 4; a = 4; b = 8 });
  emit (Instr.Act { dst = 4; src = 4; f = Instr.Sigmoid });
  (* exchange r.h: every part needs the full gated state *)
  emit (Instr.Vv_mul { dst = 10; a = 3; b = 14 });
  emit (Instr.V_wr { src = 10; addr = sync_addr lay t 0; len = sl });
  emit (Instr.V_rd { dst = 9; addr = sync_addr lay t 0; len = lay.hidden });
  (* candidate slice *)
  emit (Instr.Mvm { dst = 5; mat = 2; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 5; src = 9 });
  emit (Instr.Vv_add { dst = 5; a = 5; b = 8 });
  emit (Instr.Act { dst = 5; src = 5; f = Instr.Tanh });
  (* h' slice = (1-z)*n + z*h *)
  emit (Instr.Vv_sub { dst = 11; a = 2; b = 4 });
  emit (Instr.Vv_mul { dst = 12; a = 11; b = 5 });
  emit (Instr.Vv_mul { dst = 13; a = 4; b = 14 });
  emit (Instr.Vv_add { dst = 14; a = 12; b = 13 });
  emit (Instr.V_wr { src = 14; addr = lay.h_out_base + (t * sl); len = sl });
  emit (Instr.V_wr { src = 14; addr = sync_addr lay t 1; len = sl });
  emit (Instr.V_rd { dst = 1; addr = sync_addr lay t 1; len = lay.hidden })

let generate kind ~hidden ~input ~timesteps ~parts ~part =
  let lay = make_layout kind ~hidden ~input ~timesteps ~parts ~part in
  let step = match kind with Codegen.Lstm -> lstm_step | Codegen.Gru -> gru_step in
  (* The weight loads, three fills, then the steps (as long as a dry
     run of the first), written straight into the program's array. *)
  let step_length = ref 0 in
  step lay 0 (fun _ -> incr step_length);
  let n = List.length lay.weights + 3 + (timesteps * !step_length) in
  let instrs = Array.make n Instr.Nop in
  let pos = ref 0 in
  let emit i =
    instrs.(!pos) <- i;
    incr pos
  in
  List.iter
    (fun { Codegen.mreg; addr; rows; cols } ->
      emit (Instr.M_rd { dst = mreg; addr; rows; cols }))
    lay.weights;
  emit (Instr.V_fill { dst = 1; len = hidden; value = 0.0 });
  emit (Instr.V_fill { dst = 14; len = lay.slice; value = 0.0 });
  emit
    (match kind with
    | Codegen.Lstm -> Instr.V_fill { dst = 2; len = lay.slice; value = 0.0 }
    | Codegen.Gru -> Instr.V_fill { dst = 2; len = lay.slice; value = 1.0 });
  for t = 0 to timesteps - 1 do
    step lay t emit
  done;
  assert (!pos = n);
  ({ Program.instrs; vregs = 16; mregs = 8 }, lay)

(* ------------------------------------------------------------------ *)
(* Instruction reordering                                              *)
(* ------------------------------------------------------------------ *)

(* A growable int array. *)
type ints = { mutable data : int array; mutable len : int }

let ints capacity = { data = Array.make capacity 0; len = 0 }

let grow b =
  let data = Array.make (max 16 (2 * b.len)) 0 in
  Array.blit b.data 0 data 0 b.len;
  b.data <- data

let[@inline] push b x =
  if b.len = Array.length b.data then grow b;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* A min-heap of distinct ints in an [ints].  The ready queue of the
   schedule below holds a couple of instructions on average, so the
   sifts are loops in the caller, not calls. *)
let[@inline] heap_push heap x =
  push heap x;
  let h = heap.data in
  let k = ref (heap.len - 1) in
  while !k > 0 && h.((!k - 1) / 2) > x do
    h.(!k) <- h.((!k - 1) / 2);
    k := (!k - 1) / 2
  done;
  h.(!k) <- x

let[@inline] heap_pop heap =
  let h = heap.data in
  let top = h.(0) in
  let size = heap.len - 1 in
  heap.len <- size;
  if size > 0 then begin
    let x = h.(size) in
    let k = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !k) + 1 in
      let c = if l + 1 < size && h.(l + 1) < h.(l) then l + 1 else l in
      if c < size && h.(c) < x then begin
        h.(!k) <- h.(c);
        k := c
      end
      else sifting := false
    done;
    h.(!k) <- x
  end;
  top

(* Earlier DRAM accesses of one length [clen], sorted by start
   address: those that overlap [a, a + l) are the run starting in
   (a - clen, a + l). *)
type dram_class = { clen : int; starts : ints; owners : ints }

(* Accesses mostly arrive in address order: the shift is rare. *)
let add_access classes a l i =
  let rec find = function
    | [] -> { clen = l; starts = ints 16; owners = ints 16 }
    | c :: rest -> if c.clen = l then c else find rest
  in
  let c = find classes in
  push c.starts a;
  push c.owners i;
  let starts = c.starts.data and owners = c.owners.data in
  let k = ref (c.starts.len - 1) in
  while !k > 0 && starts.(!k - 1) > a do
    starts.(!k) <- starts.(!k - 1);
    owners.(!k) <- owners.(!k - 1);
    decr k
  done;
  starts.(!k) <- a;
  owners.(!k) <- i;
  if c.starts.len = 1 then c :: classes else classes

(* Scheduling keys: an instruction's class (sends 0, receives 2,
   everything else 1) above its index, so the smallest key is the
   earliest instruction of the first class with one ready. *)
let class_shift = Sys.int_size - 3
let index_mask = (1 lsl class_shift) - 1
let send_class = 0
let compute_class = 1 lsl class_shift
let receive_class = 2 lsl class_shift

(* Two fields in one int (OCaml 5 ints have 63 bits): an index [hi]
   and a link [lo] that is -1 or an index, both below 2^31. *)
let link_bits = 31
let link_mask = (1 lsl link_bits) - 1
let[@inline] pack hi lo = (hi lsl link_bits) lor (lo + 1)
let[@inline] hi w = w lsr link_bits
let[@inline] lo w = (w land link_mask) - 1

(* [push] for [pack]ed words, which link to each other by position,
   so the positions must stay below 2^31 too. *)
let[@inline] push_packed b w =
  if b.len >= link_mask then invalid_arg "Scale_out.reorder: program too large";
  push b w

(* The dependence scan's state.  Edges found while scanning
   instruction [cur] all end at [cur].  [pending.(i)] is [i]'s
   scheduling class plus the number of its predecessors not yet
   scheduled.  The edges leaving [j] form a list threaded through
   [edges], one word each: [head.(j)] is the latest, and each edge
   packs its successor with the edge below it.

   Slots are tracked by last writer and readers since: the vector
   registers, the matrix registers, then one per mailbox address,
   numbered on first sight.  A mailbox less than [n] above
   [mailbox_base] finds its slot in [by_offset], indexed by that
   offset; one further up, in [sparse].  Each slot's readers are a
   stack of nodes in [nodes], each packing a reader with the node
   below; a write frees them for reuse through [free]. *)
type scan = {
  mailbox_base : int;  (* the [sync_base] *)
  pending : int array;
  head : int array;
  edges : ints;
  last_write : ints;
  readers : ints;
  nodes : ints;
  mutable by_offset : int array;
  sparse : int Mlv_util.Int_table.t;
  mutable free : int;
  mutable cur : int;
  mutable dram_reads : dram_class list;
  mutable dram_writes : dram_class list;
}

(* An edge j -> cur can only have been recorded during the scan of
   [cur], after which nothing else leaves [j], so it is a duplicate
   exactly when it is [j]'s latest: no lookup, no stamp. *)
let[@inline] add_edge st j =
  let i = st.cur in
  if j <> i then begin
    let h = st.head.(j) in
    if h < 0 || hi st.edges.data.(h) <> i then begin
      st.head.(j) <- st.edges.len;
      push_packed st.edges (pack i h);
      st.pending.(i) <- st.pending.(i) + 1
    end
  end

let read_slot st s =
  let w = st.last_write.data.(s) in
  if w >= 0 then add_edge st w;
  let nodes = st.nodes in
  if st.free < 0 then begin
    st.free <- nodes.len;
    push_packed nodes (pack 0 (-1))
  end;
  let node = st.free in
  st.free <- lo nodes.data.(node);
  nodes.data.(node) <- pack st.cur st.readers.data.(s);
  st.readers.data.(s) <- node

(* Every reader since the last write read after it, so with readers
   the write-after-write edge follows from theirs and is left out:
   the order depends only on which instructions must precede which. *)
let write_slot st s =
  let nodes = st.nodes in
  let r = ref st.readers.data.(s) in
  if !r < 0 then begin
    let w = st.last_write.data.(s) in
    if w >= 0 then add_edge st w
  end;
  while !r >= 0 do
    let node = !r in
    let w = nodes.data.(node) in
    add_edge st (hi w);
    r := lo w;
    nodes.data.(node) <- pack 0 st.free;
    st.free <- node
  done;
  st.readers.data.(s) <- -1;
  st.last_write.data.(s) <- st.cur

let new_slot st =
  let s = st.last_write.len in
  push st.last_write (-1);
  push st.readers (-1);
  s

let mailbox st addr =
  let off = addr - st.mailbox_base in
  if off >= 0 && off < Array.length st.pending then begin
    let n = Array.length st.by_offset in
    if off >= n then begin
      let a = Array.make (max (off + 1) (2 * n)) (-1) in
      Array.blit st.by_offset 0 a 0 n;
      st.by_offset <- a
    end;
    let s = st.by_offset.(off) in
    if s >= 0 then s
    else begin
      let s = new_slot st in
      st.by_offset.(off) <- s;
      s
    end
  end
  else
    match Mlv_util.Int_table.find st.sparse addr with
    | s -> s
    | exception Not_found ->
      let s = new_slot st in
      Mlv_util.Int_table.add st.sparse addr s;
      s

let rec overlapping st classes a l =
  match classes with
  | [] -> ()
  | c :: rest ->
    let starts = c.starts.data in
    let lo = ref 0 and hi = ref c.starts.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if starts.(mid) > a - c.clen then hi := mid else lo := mid + 1
    done;
    while !lo < c.starts.len && starts.(!lo) < a + l do
      add_edge st c.owners.data.(!lo);
      incr lo
    done;
    overlapping st rest a l

(* Earlier DRAM reads and writes are indexed by length. *)
let dram_read st a l =
  overlapping st st.dram_writes a l;
  st.dram_reads <- add_access st.dram_reads a l st.cur

let dram_write st a l =
  overlapping st st.dram_writes a l;
  overlapping st st.dram_reads a l;
  st.dram_writes <- add_access st.dram_writes a l st.cur

exception Control_flow

let register r ~base ~count =
  if r < 0 || r >= count then invalid_arg "Scale_out.reorder: register out of range";
  base + r

(* One instruction's effects, reads before writes, in operand order
   (as [Instr.iter_effects] lists them).  A [V_rd]/[V_wr] at or above
   [sync_base] is a mailbox access keyed by its exact address, as in
   [Exec], and never in conflict with DRAM. *)
let scan_instr st ~vregs ~mregs i (instr : Instr.t) =
  st.cur <- i;
  st.pending.(i) <- compute_class;
  match instr with
  | Instr.V_rd { dst; addr; len } ->
    if addr >= st.mailbox_base then begin
      st.pending.(i) <- receive_class;
      read_slot st (mailbox st addr)
    end
    else dram_read st addr len;
    write_slot st (register dst ~base:0 ~count:vregs)
  | Instr.V_wr { src; addr; len } ->
    if addr >= st.mailbox_base then st.pending.(i) <- send_class;
    read_slot st (register src ~base:0 ~count:vregs);
    if addr >= st.mailbox_base then write_slot st (mailbox st addr) else dram_write st addr len
  | Instr.V_fill { dst; _ } -> write_slot st (register dst ~base:0 ~count:vregs)
  | Instr.M_rd { dst; addr; rows; cols } ->
    dram_read st addr (rows * cols);
    write_slot st (register dst ~base:vregs ~count:mregs)
  | Instr.Mvm { dst; mat; src } ->
    read_slot st (register src ~base:0 ~count:vregs);
    read_slot st (register mat ~base:vregs ~count:mregs);
    write_slot st (register dst ~base:0 ~count:vregs)
  | Instr.Vv_add { dst; a; b } | Instr.Vv_sub { dst; a; b } | Instr.Vv_mul { dst; a; b } ->
    read_slot st (register a ~base:0 ~count:vregs);
    read_slot st (register b ~base:0 ~count:vregs);
    write_slot st (register dst ~base:0 ~count:vregs)
  | Instr.Act { dst; src; _ } ->
    read_slot st (register src ~base:0 ~count:vregs);
    write_slot st (register dst ~base:0 ~count:vregs)
  | Instr.Nop -> ()
  | Instr.Loop _ | Instr.End_loop | Instr.V_rd_i _ -> raise Control_flow
  | Instr.V_wr_i { src; _ } ->
    read_slot st (register src ~base:0 ~count:vregs);
    raise Control_flow

(* Where [reorder] puts each instruction of [p]: [Some pos] with
   [pos.(i)] the position of instruction [i], or [None] for a program
   with control flow. *)
let positions ~sync_base (p : Program.t) =
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  if n > link_mask then invalid_arg "Scale_out.reorder: program too large";
  let vregs = p.Program.vregs and mregs = p.Program.mregs in
  let regs = vregs + mregs in
  (* Sized for the service model's programs: fewer than 2.5 edges, 0.5
     open reads and 0.125 mailboxes per instruction. *)
  let no_slots () = { data = Array.make (regs + (n / 8) + 64) (-1); len = regs } in
  let st =
    {
      mailbox_base = sync_base;
      pending = Array.make n 0;
      head = Array.make n (-1);
      edges = ints ((5 * n / 2) + 32);
      last_write = no_slots ();
      readers = no_slots ();
      nodes = ints ((n / 2) + 64);
      by_offset = Array.make (min n ((n / 8) + 64)) (-1);
      sparse = Mlv_util.Int_table.create 16;
      free = -1;
      cur = 0;
      dram_reads = [];
      dram_writes = [];
    }
  in
  (* Priority topological order: sends first, receives last, original
     order otherwise.  Keys are unique, so the order does not depend
     on how the edges were found, nor on which implied edges were
     left out.  Once [i] is scheduled nothing reads [pending.(i)]
     again, so it takes [i]'s position. *)
  let heap = ints 64 and pending = st.pending and edges = st.edges in
  match
    for i = 0 to n - 1 do
      scan_instr st ~vregs ~mregs i instrs.(i);
      if pending.(i) land index_mask = 0 then heap_push heap (pending.(i) lor i)
    done
  with
  | exception Control_flow -> None
  | () ->
    for k = 0 to n - 1 do
      (* Every edge points forward, so the heap never runs dry. *)
      let i = heap_pop heap land index_mask in
      pending.(i) <- k;
      let e = ref st.head.(i) in
      while !e >= 0 do
        let edge = edges.data.(!e) in
        let j = hi edge in
        let w = pending.(j) - 1 in
        pending.(j) <- w;
        if w land index_mask = 0 then heap_push heap (w lor j);
        e := lo edge
      done
    done;
    Some pending

let reorder ~sync_base (p : Program.t) =
  match positions ~sync_base p with
  | None -> p
  | Some pos ->
    let instrs = p.Program.instrs in
    let out = Array.make (Array.length instrs) Instr.Nop in
    for i = 0 to Array.length instrs - 1 do
      out.(pos.(i)) <- instrs.(i)
    done;
    { p with Program.instrs = out }

(* [reorder] for a program nothing else holds: the instructions move
   within its own array, cycle by cycle, and [pos] marks the moved
   ones with -1. *)
let reorder_owned ~sync_base (p : Program.t) =
  (match positions ~sync_base p with
  | None -> ()
  | Some pos ->
    let instrs = p.Program.instrs in
    for i = 0 to Array.length instrs - 1 do
      if pos.(i) >= 0 then begin
        let moving = ref instrs.(i) and j = ref pos.(i) in
        pos.(i) <- -1;
        while !j <> i do
          let next = instrs.(!j) and after = pos.(!j) in
          instrs.(!j) <- !moving;
          pos.(!j) <- -1;
          moving := next;
          j := after
        done;
        instrs.(i) <- !moving
      end
    done);
  p

(* ------------------------------------------------------------------ *)
(* Functional co-simulation                                            *)
(* ------------------------------------------------------------------ *)

(* Ports for [parts] co-simulated accelerators.  The merge places
   sender q's slice at offset q * (len / parts): every exchanged
   vector is evenly sliced across the parts, whatever its length. *)
let link_ports ~parts =
  let slices : (int * int, float array) Hashtbl.t = Hashtbl.create 256 in
  Array.init parts (fun p ->
      {
        Exec.send = (fun ~addr data -> Hashtbl.replace slices (p, addr) data);
        recv =
          (fun ~addr ~len ->
            let out = Array.make len 0.0 in
            let complete = ref true in
            for q = 0 to parts - 1 do
              match Hashtbl.find_opt slices (q, addr) with
              | Some s -> Array.blit s 0 out (q * (len / parts)) (Array.length s)
              | None -> complete := false
            done;
            if !complete then Some out else None);
      })

let link layouts = link_ports ~parts:(Array.length layouts)

(* Round-robin co-simulation over explicit sync bases. *)
let co_simulate ?(exact = false) programs ~sync_bases ~drams ~max_steps =
  let n = Array.length programs in
  if Array.length sync_bases <> n || Array.length drams <> n then
    invalid_arg "Scale_out.co_simulate: array length mismatch";
  let ports = link_ports ~parts:n in
  let execs =
    Array.mapi
      (fun i program ->
        Exec.create ~exact ~sync_base:sync_bases.(i) ~port:ports.(i) ~dram:drams.(i)
          program)
      programs
  in
  let done_ = Array.make n false in
  let budget = ref max_steps in
  let remaining () = Array.exists (fun d -> not d) done_ in
  while remaining () do
    if !budget <= 0 then failwith "Scale_out.co_simulate: step budget exhausted";
    let progressed = ref false in
    Array.iteri
      (fun i ex ->
        if not done_.(i) then begin
          match Exec.step ex with
          | Exec.Done ->
            done_.(i) <- true;
            progressed := true
          | Exec.Running -> progressed := true
          | Exec.Stalled -> ()
        end)
      execs;
    if (not !progressed) && remaining () then
      failwith "Scale_out.co_simulate: deadlock (all parts stalled)";
    decr budget
  done;
  execs

let init_part_dram ~full_layout ~full_dram lay =
  let dram = Array.make lay.dram_words 0.0 in
  List.iteri
    (fun i (w : Codegen.weight_spec) ->
      let full_w = List.nth full_layout.Codegen.weights i in
      (* copy this part's row slice of the full matrix *)
      for r = 0 to w.Codegen.rows - 1 do
        let full_row = (lay.part * lay.slice) + r in
        Array.blit full_dram
          (full_w.Codegen.addr + (full_row * full_w.Codegen.cols))
          dram
          (w.Codegen.addr + (r * w.Codegen.cols))
          w.Codegen.cols
      done)
    lay.weights;
  (* inputs are replicated *)
  Array.blit full_dram full_layout.Codegen.x_base dram lay.x_base
    (lay.timesteps * lay.input);
  dram

let run_parts ?exact programs layouts ~drams ~max_steps =
  if Array.length programs <> Array.length layouts
     || Array.length drams <> Array.length layouts
  then invalid_arg "Scale_out.run_parts: array length mismatch";
  co_simulate ?exact programs
    ~sync_bases:(Array.map (fun lay -> lay.sync_base) layouts)
    ~drams ~max_steps

(* ------------------------------------------------------------------ *)
(* Fig. 11 analysis                                                    *)
(* ------------------------------------------------------------------ *)

type plan = { program : Program.t; layout : part_layout }

let plan ~reordered kind ~hidden ~input ~timesteps ~parts =
  let program, layout = generate kind ~hidden ~input ~timesteps ~parts ~part:0 in
  let program =
    if reordered then reorder_owned ~sync_base:layout.sync_base program else program
  in
  { program; layout }

(* Timing of one part's program: a barrier read waits for the
   farthest partner's slice; (parts-1) slices share the ring links. *)
let part_latency_us ?partner_slowdown ~parts ~sync_base ~config ~device
    ~added_latency_us program =
  let board = Board.default in
  let max_hops = max 1 (parts / 2) in
  let extra (instr : Instr.t) =
    match instr with
    | Instr.V_rd { addr; len; _ } when addr >= sync_base ->
      let slice_bytes = len / parts * 2 in
      Board.ring_transfer_time_us board
        ~bytes:(slice_bytes * (parts - 1))
        ~hops:max_hops ~added_latency_us
    | _ -> 0.0
  in
  let vbs = (config.Mlv_accel.Config.tiles / 2) + 2 in
  let deploy = Mlv_accel.Perf.vital_deploy ~virtual_blocks:vbs ~pattern_aware:true in
  (Mlv_accel.Perf.program_latency config device ~deploy ~board
     ?partner_stretch:partner_slowdown ~extra_latency_us:extra ~sync_base program)
    .Mlv_accel.Perf.total_us

let plan_latency_us ?partner_slowdown ~config ~device ~added_latency_us plan =
  part_latency_us ?partner_slowdown ~parts:plan.layout.parts
    ~sync_base:plan.layout.sync_base ~config ~device ~added_latency_us plan.program

let multi_fpga_latency_us ?partner_slowdown ~parts ~config ~device ~added_latency_us
    ~reordered kind ~hidden ~input ~timesteps =
  plan_latency_us ?partner_slowdown ~config ~device ~added_latency_us
    (plan ~reordered kind ~hidden ~input ~timesteps ~parts)

let two_fpga_latency_us ~config ~device ~added_latency_us ~reordered kind ~hidden
    ~input ~timesteps =
  multi_fpga_latency_us ~parts:2 ~config ~device ~added_latency_us ~reordered kind
    ~hidden ~input ~timesteps

(* ------------------------------------------------------------------ *)
(* MLP scale-out                                                       *)
(* ------------------------------------------------------------------ *)

type mlp_layout = {
  mspec : Mlp.spec;
  mbatch : int;
  mparts : int;
  mpart : int;
  mweights : Codegen.weight_spec list;
  mx_base : int;
  my_base : int;
  out_slice : int;
  msync_base : int;
  mdram_words : int;
}

let make_mlp_layout spec ~batch ~parts ~part =
  if parts < 2 then invalid_arg "Scale_out: parts must be >= 2";
  if part < 0 || part >= parts then invalid_arg "Scale_out: part out of range";
  (* Every non-input dimension is sliced across the parts. *)
  (match spec.Mlp.layer_dims with
  | _ :: rest ->
    if List.exists (fun d -> d mod parts <> 0) rest then
      invalid_arg "Scale_out: parts must divide every layer dimension"
  | [] -> invalid_arg "Scale_out: empty spec");
  let shapes =
    let rec go = function
      | din :: (dout :: _ as rest) -> (dout / parts, din) :: go rest
      | _ -> []
    in
    go spec.Mlp.layer_dims
  in
  let weights = ref [] in
  let addr = ref 0 in
  List.iteri
    (fun i (rows, cols) ->
      weights := { Codegen.mreg = i; addr = !addr; rows; cols } :: !weights;
      addr := !addr + (rows * cols))
    shapes;
  let input_dim = List.hd spec.Mlp.layer_dims in
  let output_dim = List.nth spec.Mlp.layer_dims (List.length spec.Mlp.layer_dims - 1) in
  let out_slice = output_dim / parts in
  let mx_base = !addr in
  let my_base = mx_base + (batch * input_dim) in
  let mdram_words = my_base + (batch * out_slice) in
  {
    mspec = spec;
    mbatch = batch;
    mparts = parts;
    mpart = part;
    mweights = List.rev !weights;
    mx_base;
    my_base;
    out_slice;
    msync_base = mdram_words + 1024;
    mdram_words;
  }

(* One sync slot per (sample, layer). *)
let mlp_sync_addr lay b layer =
  lay.msync_base + (b * List.length lay.mweights) + layer

let generate_mlp spec ~batch ~parts ~part =
  let lay = make_mlp_layout spec ~batch ~parts ~part in
  let loads =
    List.map
      (fun (w : Codegen.weight_spec) ->
        Instr.M_rd
          {
            dst = w.Codegen.mreg;
            addr = w.Codegen.addr;
            rows = w.Codegen.rows;
            cols = w.Codegen.cols;
          })
      lay.mweights
  in
  let dims = Array.of_list lay.mspec.Mlp.layer_dims in
  let n_layers = List.length lay.mweights in
  let input_dim = dims.(0) in
  (* Two register banks, rotated by sample parity: the executor has
     no renaming, so adjacent samples must not share registers or the
     reorderer cannot hoist the next sample's first-layer multiply
     above this sample's barrier reads.  Bank layout: act (full
     activation), pre (pre-activation slice), own (post-activation
     slice).  The last layer skips the exchange — each part keeps its
     own slice of the output. *)
  let sample b =
    let base = if b mod 2 = 0 then 0 else 4 in
    let act = base and pre = base + 1 and own = base + 2 in
    Instr.V_rd { dst = act; addr = lay.mx_base + (b * input_dim); len = input_dim }
    :: List.concat
         (List.init n_layers (fun i ->
              let last = i = n_layers - 1 in
              let f = if last then Instr.Identity else lay.mspec.Mlp.activation in
              let slice = dims.(i + 1) / lay.mparts in
              if last then
                [
                  Instr.Mvm { dst = pre; mat = i; src = act };
                  Instr.Act { dst = own; src = pre; f };
                ]
              else
                [
                  Instr.Mvm { dst = pre; mat = i; src = act };
                  Instr.Act { dst = own; src = pre; f };
                  Instr.V_wr { src = own; addr = mlp_sync_addr lay b i; len = slice };
                  Instr.V_rd { dst = act; addr = mlp_sync_addr lay b i; len = dims.(i + 1) };
                ]))
    @ [
        Instr.V_wr
          { src = own; addr = lay.my_base + (b * lay.out_slice); len = lay.out_slice };
      ]
  in
  let body = List.concat (List.init batch sample) in
  (Program.make ~vregs:8 ~mregs:(max 1 n_layers) (loads @ body), lay)

let init_mlp_part_dram ~full_layout ~full_dram lay =
  let dram = Array.make lay.mdram_words 0.0 in
  List.iteri
    (fun i (w : Codegen.weight_spec) ->
      let full_w = List.nth full_layout.Mlp.weights i in
      for r = 0 to w.Codegen.rows - 1 do
        let full_row = (lay.mpart * w.Codegen.rows) + r in
        Array.blit full_dram
          (full_w.Codegen.addr + (full_row * full_w.Codegen.cols))
          dram
          (w.Codegen.addr + (r * w.Codegen.cols))
          w.Codegen.cols
      done)
    lay.mweights;
  Array.blit full_dram full_layout.Mlp.x_base dram lay.mx_base
    (lay.mbatch * full_layout.Mlp.input_dim);
  dram

let run_mlp_parts ?exact programs layouts ~drams ~max_steps =
  co_simulate ?exact programs
    ~sync_bases:(Array.map (fun lay -> lay.msync_base) layouts)
    ~drams ~max_steps

let mlp_latency_us ~parts ~config ~device ~added_latency_us ~reordered spec ~batch =
  let program, lay = generate_mlp spec ~batch ~parts ~part:0 in
  let program =
    if reordered then reorder ~sync_base:lay.msync_base program else program
  in
  part_latency_us ~parts ~sync_base:lay.msync_base ~config ~device ~added_latency_us
    program
