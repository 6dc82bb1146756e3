(* Reference oracle for [Perf.program_latency]: the timing interpreter
   as it was before it stopped allocating per executed instruction
   (an [Instr.effects] record, a result tuple and closures for every
   instruction it runs).  Kept verbatim, with the pipeline constants
   it reads; the differential property in [test_accel] checks the
   production interpreter against it field for field, to the bit. *)

open Mlv_fpga
module Instr = Mlv_isa.Instr
module Program = Mlv_isa.Program
module Config = Mlv_accel.Config
module Resource_model = Mlv_accel.Resource_model
module Perf = Mlv_accel.Perf

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

let li_hops (d : Perf.deployment) =
  if not d.Perf.vital then 0
  else if d.Perf.pattern_aware then 1
  else 4 + (d.Perf.virtual_blocks / 3)

let program_latency (c : Config.t) (dev : Device.t) ?(deploy = Perf.bare)
    ?(board = Board.default) ?(weights_resident = true) ?(instr_buffer = true)
    ?(dram_sharers = 1) ?(partner_stretch = 1.0) ?extra_latency_us
    ?(sync_base = max_int) ?trace p =
  let freq_mhz = Resource_model.achieved_freq_mhz c dev ~floorplanned:true in
  let cycle_us = 1.0 /. freq_mhz in
  let us_of_cycles n = float_of_int n *. cycle_us in
  let hops = li_hops deploy in
  let li_per_edge = hops * li_hop_cycles in
  (* Vector lengths and matrix shapes are tracked symbolically so the
     MFU occupancy of length-free instructions is known. *)
  let vlen = Array.make p.Program.vregs 0 in
  let mshape = Array.make p.Program.mregs (0, 0) in
  (* Synchronization mailboxes: address -> partner arrival basis of
     the last send posted there.  A slower partner (partner_stretch >
     1) needs proportionally longer for the compute segment since the
     previous barrier, so its matching send lags ours by
     (stretch - 1) x (time since the last barrier completed). *)
  let sync_sends : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let last_barrier = ref invocation_us in
  let clock = ref invocation_us in
  let compute_cycles = ref 0 in
  let memory_us = ref 0.0 in
  let li_cycles_total = ref 0 in
  let instructions = ref 0 in
  let model_weight_words =
    Array.fold_left
      (fun acc i ->
        match i with Instr.M_rd { rows; cols; _ } -> acc + (rows * cols) | _ -> acc)
      0 p.Program.instrs
  in
  (* Fraction of each matrix that overflows tile memory and must be
     streamed from DRAM on every use. *)
  let capacity = Config.weight_capacity_words c in
  let overflow_fraction =
    if weights_resident && model_weight_words <= capacity then 0.0
    else if not weights_resident then 1.0
    else
      float_of_int (model_weight_words - capacity) /. float_of_int model_weight_words
  in
  (* Co-located accelerators on one device share the DRAM channel;
     data accesses see 1/n of the bandwidth (latency unchanged). *)
  let sharers = Float.max 1.0 (float_of_int dram_sharers) in
  let dram_us ~bytes =
    let one = Board.dram_read_time_us board ~bytes in
    let latency = board.Board.dram_latency_ns /. 1000.0 in
    (* Long bursts amortize the access latency and lose bandwidth
       proportionally; short accesses additionally queue behind the
       other requestors. *)
    let short_factor = Float.min 1.0 (64.0 /. Float.max 1.0 (float_of_int bytes)) in
    (latency *. (1.0 +. ((sharers -. 1.0) *. short_factor)))
    +. ((one -. latency) *. sharers)
  in
  (* Without the on-chip instruction buffer every instruction word is
     fetched from the shared DRAM (paper Section 4.4: the buffer is
     what makes performance isolation possible). *)
  let fetch_us = if instr_buffer then 0.0 else dram_us ~bytes:8 in
  (* Hardware loop stack: (body start pc, remaining repeats). *)
  let loops = ref [] in
  let n_instrs = Array.length p.Program.instrs in
  let pc = ref 0 in
  while !pc < n_instrs do
    let instr = p.Program.instrs.(!pc) in
    begin
      incr instructions;
      let e = Instr.effects instr in
      (* Crossing a virtual-block boundary costs LI hops once per
         instruction result (operand FIFOs fill in parallel). *)
      let has_edge = e.Instr.vreads <> [] || e.Instr.mreads <> [] in
      let li = if has_edge then li_per_edge else 0 in
      li_cycles_total := !li_cycles_total + li;
      (* Latency in cycles plus any DRAM time, per instruction. *)
      let lat_cycles, mem_time_us =
        match instr with
        | Instr.Mvm { mat; src = _; dst = _ } ->
          let rows, cols = mshape.(mat) in
          let compute = mvm_cycles c ~rows ~cols in
          compute_cycles := !compute_cycles + compute;
          let stream_us =
            if overflow_fraction > 0.0 then begin
              let words = float_of_int (rows * cols) *. overflow_fraction in
              let bytes =
                int_of_float
                  (words *. float_of_int Config.stored_bits_per_weight /. 8.0)
              in
              dram_us ~bytes
            end
            else 0.0
          in
          (compute + mvm_depth, stream_us)
        | Instr.Vv_add { a; _ } | Instr.Vv_sub { a; _ } | Instr.Vv_mul { a; _ } ->
          let occ = ceil_div (max 1 vlen.(a)) c.Config.lanes in
          compute_cycles := !compute_cycles + occ;
          (occ + mfu_depth, 0.0)
        | Instr.Act { src; _ } ->
          let occ = ceil_div (max 1 vlen.(src)) c.Config.lanes in
          compute_cycles := !compute_cycles + occ;
          (occ + mfu_depth, 0.0)
        | Instr.V_fill { len; _ } ->
          let occ = ceil_div len c.Config.lanes in
          (occ + mfu_depth, 0.0)
        | Instr.V_rd { addr; len; _ } ->
          if addr >= sync_base then (0, 0.0) else (0, dram_us ~bytes:(len * 2))
        | Instr.V_wr { addr; len; _ } ->
          (* A synchronization send posts into the template module's
             buffer; the transfer itself is asynchronous. *)
          if addr >= sync_base then (4, 0.0) else (0, dram_us ~bytes:(len * 2))
        | Instr.M_rd { rows; cols; _ } ->
          if weights_resident then (0, 0.0) else (0, dram_us ~bytes:(rows * cols))
        | Instr.Nop | Instr.Loop _ | Instr.End_loop -> (1, 0.0)
        | Instr.V_rd_i { len; _ } -> (0, dram_us ~bytes:(len * 2))
        | Instr.V_wr_i { len; _ } -> (0, dram_us ~bytes:(len * 2))
      in
      let extra = match extra_latency_us with Some f -> f instr | None -> 0.0 in
      let start = !clock +. us_of_cycles issue_cycles +. fetch_us in
      let nominal = start +. us_of_cycles (lat_cycles + li) +. mem_time_us in
      memory_us := !memory_us +. mem_time_us;
      (* A synchronization read completes when the partner's data
         arrives: the matching send (approximated by our own
         symmetric send, parts being load-balanced) plus the ring
         transfer.  The wait overlaps every instruction executed
         since the send was posted. *)
      let finish =
        match instr with
        | Instr.V_rd { addr; _ } when addr >= sync_base -> (
          (* The partner's matching send is approximated by our own to
             the same address, stretched when the partner runs on a
             slower device (the heterogeneous-deployment case). *)
          match Hashtbl.find_opt sync_sends addr with
          | Some basis -> Float.max nominal (basis +. extra)
          | None -> nominal)
        | _ -> nominal +. extra
      in
      (match instr with
      | Instr.V_wr { addr; _ } when addr >= sync_base ->
        let compute_segment = Float.max 0.0 (finish -. !last_barrier) in
        let basis = finish +. ((partner_stretch -. 1.0) *. compute_segment) in
        Hashtbl.replace sync_sends addr basis
      | _ -> ());
      (match instr with
      | Instr.V_rd { addr; _ } when addr >= sync_base -> last_barrier := finish
      | _ -> ());
      (* Record result lengths. *)
      List.iter
        (fun r ->
          match instr with
          | Instr.V_rd { len; _ } | Instr.V_rd_i { len; _ } -> vlen.(r) <- len
          | Instr.V_fill { len; _ } -> vlen.(r) <- len
          | Instr.Mvm { mat; _ } -> vlen.(r) <- fst mshape.(mat)
          | Instr.Vv_add { a; _ } | Instr.Vv_sub { a; _ } | Instr.Vv_mul { a; _ } ->
            vlen.(r) <- vlen.(a)
          | Instr.Act { src; _ } -> vlen.(r) <- vlen.(src)
          | _ -> ())
        e.Instr.vwrites;
      List.iter
        (fun r ->
          match instr with
          | Instr.M_rd { rows; cols; _ } -> mshape.(r) <- (rows, cols)
          | _ -> ())
        e.Instr.mwrites;
      (match trace with Some f -> f instr ~start ~finish | None -> ());
      clock := finish
    end;
    (* Control flow. *)
    (match instr with
    | Instr.Loop { count } ->
      loops := (!pc + 1, count - 1) :: !loops;
      incr pc
    | Instr.End_loop -> (
      match !loops with
      | (start, remaining) :: rest ->
        if remaining > 0 then begin
          loops := (start, remaining - 1) :: rest;
          pc := start
        end
        else begin
          loops := rest;
          incr pc
        end
      | [] -> incr pc)
    | _ -> incr pc)
  done;
  {
    Perf.total_us = !clock;
    compute_cycles = !compute_cycles;
    memory_us = !memory_us;
    li_cycles = !li_cycles_total;
    instructions = !instructions;
    freq_mhz;
  }
