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

let push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (max 16 (2 * b.len)) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* A min-heap of distinct ints in an [ints]. *)
let rec sift_up h x k =
  let parent = (k - 1) / 2 in
  if k > 0 && h.(parent) > x then begin
    h.(k) <- h.(parent);
    sift_up h x parent
  end
  else h.(k) <- x

let rec sift_down h size x k =
  let l = (2 * k) + 1 in
  let c = if l + 1 < size && h.(l + 1) < h.(l) then l + 1 else l in
  if c < size && h.(c) < x then begin
    h.(k) <- h.(c);
    sift_down h size x c
  end
  else h.(k) <- x

let heap_push heap x =
  push heap x;
  sift_up heap.data x (heap.len - 1)

let heap_pop heap =
  let h = heap.data in
  let top = h.(0) in
  heap.len <- heap.len - 1;
  if heap.len > 0 then sift_down h heap.len h.(heap.len) 0;
  top

(* Earlier DRAM accesses of one length [clen], sorted by start
   address: those that overlap [a, a + l) are the run starting in
   (a - clen, a + l). *)
type dram_class = { clen : int; starts : ints; owners : ints }

let rec iter_overlapping classes a l f =
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
      f c.owners.data.(!lo);
      incr lo
    done;
    iter_overlapping rest a l f

(* Accesses mostly arrive in address order: the shift is rare. *)
let add_access classes a l i =
  if not (List.exists (fun c -> c.clen = l) !classes) then
    classes := { clen = l; starts = ints 16; owners = ints 16 } :: !classes;
  let c = List.find (fun c -> c.clen = l) !classes in
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
  owners.(!k) <- i

exception Control_flow

let reorder ~sync_base (p : Program.t) =
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  let vregs = p.Program.vregs and mregs = p.Program.mregs in
  (* Dependence edges, found while scanning instruction [i], all end
     at [i]: [preds] holds each instruction's predecessors in turn,
     [waiting.(i)] of them for [i].  [stamp.(j) = i] says the edge j ->
     i is already recorded, so one int per instruction deduplicates the
     edges in time linear in their number.  [preds] is sized for the
     service model's programs (about three edges per instruction). *)
  let preds = ints ((3 * n) + 16) in
  let waiting = Array.make n 0 and stamp = Array.make n (-1) in
  let cur = ref 0 in
  let add_edge j =
    if j <> !cur && stamp.(j) <> !cur then begin
      stamp.(j) <- !cur;
      push preds j
    end
  in
  (* Slots tracked by last writer and readers since: the vector
     registers, the matrix registers, then one per mailbox address,
     numbered on first sight.  A [V_rd]/[V_wr] at or above [sync_base]
     is a mailbox access keyed by its exact address, as in [Exec], and
     never in conflict with DRAM.  Each slot's readers are a stack
     threaded through [reader]/[below], whose nodes a write frees for
     reuse. *)
  let regs = vregs + mregs in
  let no_slots () = { data = Array.make (regs + 64) (-1); len = regs } in
  let last_write = no_slots () and readers = no_slots () in
  let slot r ~base ~count =
    if r < 0 || r >= count then invalid_arg "Scale_out.reorder: register out of range";
    base + r
  in
  let mailboxes = Mlv_util.Int_table.create 64 in
  let mailbox addr =
    match Mlv_util.Int_table.find mailboxes addr with
    | s -> s
    | exception Not_found ->
      let s = last_write.len in
      push last_write (-1);
      push readers (-1);
      Mlv_util.Int_table.add mailboxes addr s;
      s
  in
  let reader = ints 64 and below = ints 64 and free = ref (-1) in
  let read_slot s =
    if last_write.data.(s) >= 0 then add_edge last_write.data.(s);
    if !free < 0 then begin
      push reader 0;
      push below (-1);
      free := reader.len - 1
    end;
    let node = !free in
    free := below.data.(node);
    reader.data.(node) <- !cur;
    below.data.(node) <- readers.data.(s);
    readers.data.(s) <- node
  in
  let write_slot s =
    if last_write.data.(s) >= 0 then add_edge last_write.data.(s);
    let r = ref readers.data.(s) in
    while !r >= 0 do
      let node = !r in
      add_edge reader.data.(node);
      r := below.data.(node);
      below.data.(node) <- !free;
      free := node
    done;
    readers.data.(s) <- -1;
    last_write.data.(s) <- !cur
  in
  (* Earlier DRAM reads and writes, by length. *)
  let dram_reads = ref [] and dram_writes = ref [] in
  let this_mailbox = ref (-1) in
  let visit (access : Instr.access) x l =
    match access with
    | Instr.Vread -> read_slot (slot x ~base:0 ~count:vregs)
    | Instr.Vwrite -> write_slot (slot x ~base:0 ~count:vregs)
    | Instr.Mread -> read_slot (slot x ~base:vregs ~count:mregs)
    | Instr.Mwrite -> write_slot (slot x ~base:vregs ~count:mregs)
    | Instr.Mem_read when !this_mailbox >= 0 -> read_slot !this_mailbox
    | Instr.Mem_write when !this_mailbox >= 0 -> write_slot !this_mailbox
    | Instr.Mem_read ->
      iter_overlapping !dram_writes x l add_edge;
      add_access dram_reads x l !cur
    | Instr.Mem_write ->
      iter_overlapping !dram_writes x l add_edge;
      iter_overlapping !dram_reads x l add_edge;
      add_access dram_writes x l !cur
    | Instr.Wild_read | Instr.Wild_write | Instr.Barrier -> raise Control_flow
  in
  match
    Array.iteri
      (fun i instr ->
        cur := i;
        let first = preds.len in
        this_mailbox :=
          (match instr with
          | (Instr.V_wr { addr; _ } | Instr.V_rd { addr; _ }) when addr >= sync_base ->
            mailbox addr
          | _ -> -1);
        Instr.iter_effects visit instr;
        waiting.(i) <- preds.len - first)
      instrs
  with
  | exception Control_flow -> p
  | () ->
    (* Successor lists (CSR) by counting: [succs.(succ_start.(j) ..
       succ_start.(j + 1) - 1)] are the instructions that wait for
       [j].  Each [succ_start.(j)] is first the end of [j]'s run, then
       counts down to its start as the run is filled. *)
    let succ_start = Array.make (n + 1) 0 in
    for e = 0 to preds.len - 1 do
      succ_start.(preds.data.(e)) <- succ_start.(preds.data.(e)) + 1
    done;
    for j = 1 to n do
      succ_start.(j) <- succ_start.(j) + succ_start.(j - 1)
    done;
    let succs = Array.make preds.len 0 and e = ref 0 in
    for i = 0 to n - 1 do
      for _ = 1 to waiting.(i) do
        let j = preds.data.(!e) in
        succ_start.(j) <- succ_start.(j) - 1;
        succs.(succ_start.(j)) <- i;
        incr e
      done
    done;
    (* Priority topological order: sends first, receives last, original
       order otherwise.  Key [klass * n + i] is unique, so the order
       does not depend on how the edges were found. *)
    let key i =
      match instrs.(i) with
      | Instr.V_wr { addr; _ } when addr >= sync_base -> i
      | Instr.V_rd { addr; _ } when addr >= sync_base -> (2 * n) + i
      | _ -> n + i
    in
    let heap = ints 64 in
    for i = 0 to n - 1 do
      if waiting.(i) = 0 then heap_push heap (key i)
    done;
    let out = Array.make n Instr.Nop in
    for k = 0 to n - 1 do
      (* Every edge points forward, so the heap never runs dry. *)
      let i = heap_pop heap mod n in
      out.(k) <- instrs.(i);
      for e = succ_start.(i) to succ_start.(i + 1) - 1 do
        let j = succs.(e) in
        waiting.(j) <- waiting.(j) - 1;
        if waiting.(j) = 0 then heap_push heap (key j)
      done
    done;
    { p with Program.instrs = out }

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
    if reordered then reorder ~sync_base:layout.sync_base program else program
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
