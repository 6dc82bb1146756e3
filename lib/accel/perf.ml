open Mlv_fpga
module Instr = Mlv_isa.Instr
module Program = Mlv_isa.Program

type deployment = { vital : bool; virtual_blocks : int; pattern_aware : bool }

let bare = { vital = false; virtual_blocks = 0; pattern_aware = true }

let vital_deploy ~virtual_blocks ~pattern_aware =
  { vital = true; virtual_blocks = max 1 virtual_blocks; pattern_aware }

type breakdown = {
  total_us : float;
  compute_cycles : int;
  memory_us : float;
  li_cycles : int;
  instructions : int;
  freq_mhz : float;
}

(* Pipeline depths and issue cost, in cycles.  Calibrated against
   Table 4's absolute latencies (see EXPERIMENTS.md).  The MVM array
   is a deep systolic pipeline (BrainWave-class NPUs run >100 stages
   end to end); the invocation cost covers the host doorbell and
   descriptor fetch per inference task. *)
let mvm_depth = 100
let mfu_depth = 30
let issue_cycles = 2
let li_hop_cycles = 5
let invocation_us = 3.0

let ceil_div a b = (a + b - 1) / b

let mvm_cycles (c : Config.t) ~rows ~cols =
  ceil_div rows (c.Config.tiles * c.Config.rows_per_tile) * ceil_div cols c.Config.lanes

let li_hops d =
  if not d.vital then 0
  else if d.pattern_aware then 1
  else 4 + (d.virtual_blocks / 3)

(* Whether [instr] reads a vector or matrix register (a [Vread] or
   [Mread] effect of {!Instr.iter_effects}): crossing a virtual-block
   boundary costs LI hops once per instruction result (operand FIFOs
   fill in parallel), and an instruction pays them when it reads a
   register. *)
let reads_register : Instr.t -> bool = function
  | Instr.V_wr _ | Instr.Mvm _ | Instr.Vv_add _ | Instr.Vv_sub _ | Instr.Vv_mul _
  | Instr.Act _ | Instr.V_wr_i _ ->
    true
  | Instr.V_rd _ | Instr.V_fill _ | Instr.M_rd _ | Instr.Nop | Instr.Loop _ | Instr.End_loop
  | Instr.V_rd_i _ ->
    false

(* Co-located accelerators on one device share the DRAM channel;
   data accesses see 1/[sharers] of the bandwidth (latency unchanged).
   Long bursts amortize the access latency and lose bandwidth
   proportionally; short accesses additionally queue behind the other
   requestors. *)
let[@inline] dram_us board ~sharers ~bytes =
  let one = Board.dram_read_time_us board ~bytes in
  let latency = board.Board.dram_latency_ns /. 1000.0 in
  let short_factor = Float.min 1.0 (64.0 /. Float.max 1.0 (float_of_int bytes)) in
  (latency *. (1.0 +. ((sharers -. 1.0) *. short_factor))) +. ((one -. latency) *. sharers)

let program_latency (c : Config.t) (dev : Device.t) ?(deploy = bare)
    ?(board = Board.default) ?(weights_resident = true) ?(instr_buffer = true)
    ?(dram_sharers = 1) ?(partner_stretch = 1.0) ?extra_latency_us
    ?(sync_base = max_int) ?trace p =
  let freq_mhz = Resource_model.achieved_freq_mhz c dev ~floorplanned:true in
  let cycle_us = 1.0 /. freq_mhz in
  let issue_us = float_of_int issue_cycles *. cycle_us in
  let hops = li_hops deploy in
  let li_per_edge = hops * li_hop_cycles in
  let instrs = p.Program.instrs in
  let n_instrs = Array.length instrs in
  (* Vector lengths and matrix shapes are tracked symbolically so the
     MFU occupancy of length-free instructions is known. *)
  let vlen = Array.make p.Program.vregs 0 in
  let mrows = Array.make p.Program.mregs 0 and mcols = Array.make p.Program.mregs 0 in
  let last_barrier = ref invocation_us in
  let clock = ref invocation_us in
  let compute_cycles = ref 0 in
  let memory_us = ref 0.0 in
  let li_cycles_total = ref 0 in
  let instructions = ref 0 in
  (* A mailbox address less than [n_instrs] above [sync_base] is near;
     one further up, far. *)
  let near_offset addr =
    let off = addr - sync_base in
    if off >= 0 && off < n_instrs then off else -1
  in
  (* One pass for the model's weight count, its hardware loops and
     the mailboxes its sends post to. *)
  let model_weight_words = ref 0 and n_loops = ref 0 in
  let near_mailboxes = ref 0 and far_sends = ref 0 in
  for i = 0 to n_instrs - 1 do
    match instrs.(i) with
    | Instr.M_rd { rows; cols; _ } -> model_weight_words := !model_weight_words + (rows * cols)
    | Instr.Loop _ -> incr n_loops
    | Instr.V_wr { addr; _ } when addr >= sync_base ->
      let off = near_offset addr in
      if off >= 0 then near_mailboxes := max !near_mailboxes (off + 1) else incr far_sends
    | _ -> ()
  done;
  let model_weight_words = !model_weight_words in
  (* Synchronization mailboxes: address -> partner arrival basis of
     the last send posted there, by offset for the near ones
     ([neg_infinity] until a send), in a table for the far ones.  A
     slower partner (partner_stretch > 1) needs proportionally longer
     for the compute segment since the previous barrier, so its
     matching send lags ours by (stretch - 1) x (time since the last
     barrier completed). *)
  let near_sends = Float.Array.make !near_mailboxes neg_infinity in
  let far_sends = Mlv_util.Int_table.create (max 1 !far_sends) in
  (* Fraction of each matrix that overflows tile memory and must be
     streamed from DRAM on every use. *)
  let capacity = Config.weight_capacity_words c in
  let overflow_fraction =
    if weights_resident && model_weight_words <= capacity then 0.0
    else if not weights_resident then 1.0
    else
      float_of_int (model_weight_words - capacity) /. float_of_int model_weight_words
  in
  let sharers = Float.max 1.0 (float_of_int dram_sharers) in
  (* Without the on-chip instruction buffer every instruction word is
     fetched from the shared DRAM (paper Section 4.4: the buffer is
     what makes performance isolation possible). *)
  let fetch_us = if instr_buffer then 0.0 else dram_us board ~sharers ~bytes:8 in
  (* Hardware loop stack: body start pc and remaining repeats of each
     open loop.  An open loop is never entered again before its
     [End_loop] closes it, so the stack is never deeper than the
     program has [Loop]s. *)
  let loop_start = Array.make !n_loops 0 and loop_left = Array.make !n_loops 0 in
  let depth = ref 0 in
  let pc = ref 0 in
  (* The DRAM time of the current instruction: the interpreter
     allocates nothing per instruction it executes. *)
  let mem_time_us = ref 0.0 in
  while !pc < n_instrs do
    let instr = instrs.(!pc) in
    incr instructions;
    let li = if reads_register instr then li_per_edge else 0 in
    li_cycles_total := !li_cycles_total + li;
    (* Latency in cycles plus any DRAM time, per instruction; the
       shape of its result is recorded for later instructions. *)
    mem_time_us := 0.0;
    let lat_cycles =
      match instr with
      | Instr.Mvm { mat; dst; _ } ->
        let rows = mrows.(mat) and cols = mcols.(mat) in
        let compute = mvm_cycles c ~rows ~cols in
        compute_cycles := !compute_cycles + compute;
        if overflow_fraction > 0.0 then begin
          let words = float_of_int (rows * cols) *. overflow_fraction in
          let bits = words *. float_of_int Config.stored_bits_per_weight in
          mem_time_us := dram_us board ~sharers ~bytes:(int_of_float (bits /. 8.0))
        end;
        vlen.(dst) <- rows;
        compute + mvm_depth
      | Instr.Vv_add { a = src; dst; _ } | Instr.Vv_sub { a = src; dst; _ }
      | Instr.Vv_mul { a = src; dst; _ } | Instr.Act { src; dst; _ } ->
        let occ = ceil_div (max 1 vlen.(src)) c.Config.lanes in
        compute_cycles := !compute_cycles + occ;
        vlen.(dst) <- vlen.(src);
        occ + mfu_depth
      | Instr.V_fill { len; dst; _ } ->
        vlen.(dst) <- len;
        ceil_div len c.Config.lanes + mfu_depth
      | Instr.V_rd { addr; len; dst } ->
        if addr < sync_base then mem_time_us := dram_us board ~sharers ~bytes:(len * 2);
        vlen.(dst) <- len;
        0
      (* A synchronization send posts into the template module's
         buffer; the transfer itself is asynchronous. *)
      | Instr.V_wr { addr; _ } when addr >= sync_base -> 4
      | Instr.V_wr { len; _ } | Instr.V_wr_i { len; _ } ->
        mem_time_us := dram_us board ~sharers ~bytes:(len * 2);
        0
      | Instr.M_rd { rows; cols; dst; _ } ->
        if not weights_resident then
          mem_time_us := dram_us board ~sharers ~bytes:(rows * cols);
        mrows.(dst) <- rows;
        mcols.(dst) <- cols;
        0
      | Instr.Nop | Instr.Loop _ | Instr.End_loop -> 1
      | Instr.V_rd_i { len; dst; _ } ->
        mem_time_us := dram_us board ~sharers ~bytes:(len * 2);
        vlen.(dst) <- len;
        0
    in
    let extra = match extra_latency_us with Some f -> f instr | None -> 0.0 in
    let start = !clock +. issue_us +. fetch_us in
    let nominal = start +. (float_of_int (lat_cycles + li) *. cycle_us) +. !mem_time_us in
    memory_us := !memory_us +. !mem_time_us;
    (* A synchronization read completes when the partner's data
       arrives: the matching send (approximated by our own symmetric
       send, parts being load-balanced, and stretched when the partner
       runs on a slower device) plus the ring transfer.  The wait
       overlaps every instruction executed since the send was posted,
       and the read is the barrier the next compute segment starts
       from.  A send records its partner's arrival basis. *)
    let finish =
      match instr with
      | Instr.V_rd { addr; _ } when addr >= sync_base ->
        let off = near_offset addr in
        let finish =
          if off >= 0 then begin
            let basis =
              if off < Float.Array.length near_sends then Float.Array.get near_sends off
              else neg_infinity
            in
            if basis = neg_infinity then nominal else Float.max nominal (basis +. extra)
          end
          else
            match Mlv_util.Int_table.find far_sends addr with
            | basis -> Float.max nominal (basis +. extra)
            | exception Not_found -> nominal
        in
        last_barrier := finish;
        finish
      | Instr.V_wr { addr; _ } when addr >= sync_base ->
        let finish = nominal +. extra in
        let compute_segment = Float.max 0.0 (finish -. !last_barrier) in
        let basis = finish +. ((partner_stretch -. 1.0) *. compute_segment) in
        let off = near_offset addr in
        if off >= 0 then Float.Array.set near_sends off basis
        else Mlv_util.Int_table.replace far_sends addr basis;
        finish
      | _ -> nominal +. extra
    in
    (match trace with Some f -> f instr ~start ~finish | None -> ());
    clock := finish;
    (* Control flow. *)
    match instr with
    | Instr.Loop { count } ->
      loop_start.(!depth) <- !pc + 1;
      loop_left.(!depth) <- count - 1;
      incr depth;
      incr pc
    | Instr.End_loop when !depth > 0 ->
      let top = !depth - 1 in
      if loop_left.(top) > 0 then begin
        loop_left.(top) <- loop_left.(top) - 1;
        pc := loop_start.(top)
      end
      else begin
        depth := top;
        incr pc
      end
    | _ -> incr pc
  done;
  {
    total_us = !clock;
    compute_cycles = !compute_cycles;
    memory_us = !memory_us;
    li_cycles = !li_cycles_total;
    instructions = !instructions;
    freq_mhz;
  }
