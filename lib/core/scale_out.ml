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

let load_weights lay =
  List.map
    (fun (w : Codegen.weight_spec) ->
      Instr.M_rd { dst = w.Codegen.mreg; addr = w.Codegen.addr; rows = w.Codegen.rows; cols = w.Codegen.cols })
    lay.weights

(* Register map: v0 x | v1 full h | v2 c-slice (LSTM) / ones-slice
   (GRU) | v3-v6 gate slices | v8 temp | v9 full r.h (GRU) | v10-v13
   temps | v14 own h slice. *)

let lstm_step lay t =
  let sl = lay.slice in
  [
    Instr.V_rd { dst = 0; addr = lay.x_base + (t * lay.input); len = lay.input };
    Instr.Mvm { dst = 3; mat = 0; src = 0 };
    Instr.Mvm { dst = 8; mat = 4; src = 1 };
    Instr.Vv_add { dst = 3; a = 3; b = 8 };
    Instr.Mvm { dst = 4; mat = 1; src = 0 };
    Instr.Mvm { dst = 8; mat = 5; src = 1 };
    Instr.Vv_add { dst = 4; a = 4; b = 8 };
    Instr.Mvm { dst = 5; mat = 2; src = 0 };
    Instr.Mvm { dst = 8; mat = 6; src = 1 };
    Instr.Vv_add { dst = 5; a = 5; b = 8 };
    Instr.Mvm { dst = 6; mat = 3; src = 0 };
    Instr.Mvm { dst = 8; mat = 7; src = 1 };
    Instr.Vv_add { dst = 6; a = 6; b = 8 };
    Instr.Act { dst = 3; src = 3; f = Instr.Sigmoid };
    Instr.Act { dst = 4; src = 4; f = Instr.Sigmoid };
    Instr.Act { dst = 5; src = 5; f = Instr.Tanh };
    Instr.Act { dst = 6; src = 6; f = Instr.Sigmoid };
    Instr.Vv_mul { dst = 10; a = 4; b = 2 };
    Instr.Vv_mul { dst = 11; a = 3; b = 5 };
    Instr.Vv_add { dst = 2; a = 10; b = 11 };
    Instr.Act { dst = 12; src = 2; f = Instr.Tanh };
    Instr.Vv_mul { dst = 14; a = 6; b = 12 };
    Instr.V_wr { src = 14; addr = lay.h_out_base + (t * sl); len = sl };
    Instr.V_wr { src = 14; addr = sync_addr lay t 0; len = sl };
    Instr.V_rd { dst = 1; addr = sync_addr lay t 0; len = lay.hidden };
  ]

let gru_step lay t =
  let sl = lay.slice in
  [
    Instr.V_rd { dst = 0; addr = lay.x_base + (t * lay.input); len = lay.input };
    (* r slice *)
    Instr.Mvm { dst = 3; mat = 0; src = 0 };
    Instr.Mvm { dst = 8; mat = 3; src = 1 };
    Instr.Vv_add { dst = 3; a = 3; b = 8 };
    Instr.Act { dst = 3; src = 3; f = Instr.Sigmoid };
    (* z slice *)
    Instr.Mvm { dst = 4; mat = 1; src = 0 };
    Instr.Mvm { dst = 8; mat = 4; src = 1 };
    Instr.Vv_add { dst = 4; a = 4; b = 8 };
    Instr.Act { dst = 4; src = 4; f = Instr.Sigmoid };
    (* exchange r.h: every part needs the full gated state *)
    Instr.Vv_mul { dst = 10; a = 3; b = 14 };
    Instr.V_wr { src = 10; addr = sync_addr lay t 0; len = sl };
    Instr.V_rd { dst = 9; addr = sync_addr lay t 0; len = lay.hidden };
    (* candidate slice *)
    Instr.Mvm { dst = 5; mat = 2; src = 0 };
    Instr.Mvm { dst = 8; mat = 5; src = 9 };
    Instr.Vv_add { dst = 5; a = 5; b = 8 };
    Instr.Act { dst = 5; src = 5; f = Instr.Tanh };
    (* h' slice = (1-z)*n + z*h *)
    Instr.Vv_sub { dst = 11; a = 2; b = 4 };
    Instr.Vv_mul { dst = 12; a = 11; b = 5 };
    Instr.Vv_mul { dst = 13; a = 4; b = 14 };
    Instr.Vv_add { dst = 14; a = 12; b = 13 };
    Instr.V_wr { src = 14; addr = lay.h_out_base + (t * sl); len = sl };
    Instr.V_wr { src = 14; addr = sync_addr lay t 1; len = sl };
    Instr.V_rd { dst = 1; addr = sync_addr lay t 1; len = lay.hidden };
  ]

let generate kind ~hidden ~input ~timesteps ~parts ~part =
  let lay = make_layout kind ~hidden ~input ~timesteps ~parts ~part in
  let init =
    load_weights lay
    @ [
        Instr.V_fill { dst = 1; len = hidden; value = 0.0 };
        Instr.V_fill { dst = 14; len = lay.slice; value = 0.0 };
        (match kind with
        | Codegen.Lstm -> Instr.V_fill { dst = 2; len = lay.slice; value = 0.0 }
        | Codegen.Gru -> Instr.V_fill { dst = 2; len = lay.slice; value = 1.0 });
      ]
  in
  let steps =
    List.concat
      (List.init timesteps (fun t ->
           match kind with Codegen.Lstm -> lstm_step lay t | Codegen.Gru -> gru_step lay t))
  in
  (Program.make ~vregs:16 ~mregs:8 (init @ steps), lay)

(* ------------------------------------------------------------------ *)
(* Instruction reordering                                              *)
(* ------------------------------------------------------------------ *)

let reorder ~sync_base (p : Program.t) =
  let has_control_flow =
    Array.exists
      (fun i ->
        match i with
        | Instr.Loop _ | Instr.End_loop | Instr.V_rd_i _ | Instr.V_wr_i _ -> true
        | _ -> false)
      p.Program.instrs
  in
  if has_control_flow then p
  else begin
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  (* Dependence edges via last-writer / reader tracking.  Every edge
     added while scanning instruction [i] ends at [i], so
     [stamp.(j) = i] says the edge j -> i is already present: one int
     per instruction deduplicates the edges, in time linear in the
     number of edges found. *)
  let succs = Array.make n [] in
  let pred_count = Array.make n 0 in
  let stamp = Array.make n (-1) in
  let add_edge j i =
    if j <> i && stamp.(j) <> i then begin
      stamp.(j) <- i;
      succs.(j) <- i :: succs.(j);
      pred_count.(i) <- pred_count.(i) + 1
    end
  in
  let last_vwrite = Array.make p.Program.vregs (-1) in
  let vreaders = Array.make p.Program.vregs [] in
  let last_mwrite = Array.make p.Program.mregs (-1) in
  let mreaders = Array.make p.Program.mregs [] in
  (* A [V_rd]/[V_wr] at or above [sync_base] is a mailbox access keyed
     by its exact address, as in [Exec]: tracked like a register, and
     never in conflict with DRAM. *)
  let sync_writer = Hashtbl.create 64 and sync_readers = Hashtbl.create 64 in
  let sync_readers_of a = Option.value ~default:[] (Hashtbl.find_opt sync_readers a) in
  (* DRAM accesses so far as parallel (addr, len, index) arrays;
     [hazards] adds an edge to [i] from each of the first [count] that
     overlaps [a, a + l), newest first. *)
  let w_addr = Array.make n 0 and w_len = Array.make n 0 and w_idx = Array.make n 0 in
  let r_addr = Array.make n 0 and r_len = Array.make n 0 and r_idx = Array.make n 0 in
  let nw = ref 0 and nr = ref 0 in
  let hazards addrs lens idxs count i a l =
    for k = count - 1 downto 0 do
      if a < addrs.(k) + lens.(k) && addrs.(k) < a + l then add_edge idxs.(k) i
    done
  in
  Array.iteri
    (fun i instr ->
      let e = Instr.effects instr in
      List.iter
        (fun r ->
          if last_vwrite.(r) >= 0 then add_edge last_vwrite.(r) i;
          vreaders.(r) <- i :: vreaders.(r))
        e.Instr.vreads;
      List.iter
        (fun r ->
          if last_mwrite.(r) >= 0 then add_edge last_mwrite.(r) i;
          mreaders.(r) <- i :: mreaders.(r))
        e.Instr.mreads;
      (match instr with
      | Instr.V_rd { addr; _ } when addr >= sync_base ->
        Option.iter (fun j -> add_edge j i) (Hashtbl.find_opt sync_writer addr);
        Hashtbl.replace sync_readers addr (i :: sync_readers_of addr)
      | Instr.V_wr { addr; _ } when addr >= sync_base ->
        Option.iter (fun j -> add_edge j i) (Hashtbl.find_opt sync_writer addr);
        List.iter (fun j -> add_edge j i) (sync_readers_of addr);
        Hashtbl.remove sync_readers addr;
        Hashtbl.replace sync_writer addr i
      | _ ->
        (match e.Instr.mem_read with
        | Some (a, l) ->
          hazards w_addr w_len w_idx !nw i a l;
          r_addr.(!nr) <- a;
          r_len.(!nr) <- l;
          r_idx.(!nr) <- i;
          incr nr
        | None -> ());
        (match e.Instr.mem_write with
        | Some (a, l) ->
          hazards w_addr w_len w_idx !nw i a l;
          hazards r_addr r_len r_idx !nr i a l;
          w_addr.(!nw) <- a;
          w_len.(!nw) <- l;
          w_idx.(!nw) <- i;
          incr nw
        | None -> ()));
      List.iter
        (fun r ->
          if last_vwrite.(r) >= 0 then add_edge last_vwrite.(r) i;
          List.iter (fun j -> add_edge j i) vreaders.(r);
          vreaders.(r) <- [];
          last_vwrite.(r) <- i)
        e.Instr.vwrites;
      List.iter
        (fun r ->
          if last_mwrite.(r) >= 0 then add_edge last_mwrite.(r) i;
          List.iter (fun j -> add_edge j i) mreaders.(r);
          mreaders.(r) <- [];
          last_mwrite.(r) <- i)
        e.Instr.mwrites)
    instrs;
  (* Priority topological order: sends first, receives last, original
     order otherwise.  Priorities are unique, so the order does not
     depend on how the edges were found. *)
  let priority i =
    let klass =
      match instrs.(i) with
      | Instr.V_wr { addr; _ } when addr >= sync_base -> 0.0
      | Instr.V_rd { addr; _ } when addr >= sync_base -> 2.0
      | _ -> 1.0
    in
    (klass *. 1e9) +. float_of_int i
  in
  let queue = Mlv_util.Pqueue.create () in
  Array.iteri (fun i c -> if c = 0 then Mlv_util.Pqueue.push queue (priority i) i) pred_count;
  let out = ref [] in
  let emitted = ref 0 in
  let rec drain () =
    match Mlv_util.Pqueue.pop queue with
    | None -> ()
    | Some (_, i) ->
      out := instrs.(i) :: !out;
      incr emitted;
      List.iter
        (fun j ->
          pred_count.(j) <- pred_count.(j) - 1;
          if pred_count.(j) = 0 then Mlv_util.Pqueue.push queue (priority j) j)
        succs.(i);
      drain ()
  in
  drain ();
  assert (!emitted = n);
  Program.make ~vregs:p.Program.vregs ~mregs:p.Program.mregs (List.rev !out)
  end

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
