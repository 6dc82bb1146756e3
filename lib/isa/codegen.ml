type kind = Lstm | Gru

type weight_spec = { mreg : Instr.mreg; addr : int; rows : int; cols : int }

type layout = {
  kind : kind;
  hidden : int;
  input : int;
  timesteps : int;
  weights : weight_spec list;
  x_base : int;
  h_out_base : int;
  dram_words : int;
}

let kind_name = function Lstm -> "LSTM" | Gru -> "GRU"

(* Vector register map (shared by both kinds):
   v0 x_t          v1 h (persistent)    v2 c / ones
   v3-v6 gates     v8 temp for U*h      v9-v13 temps *)

let weight_count = function Lstm -> 8 | Gru -> 6

let make_layout kind ~hidden ~input ~timesteps =
  let nw = weight_count kind in
  let weights = ref [] in
  let addr = ref 0 in
  for i = 0 to nw - 1 do
    (* First half are input-facing (hidden x input), second half are
       recurrent (hidden x hidden). *)
    let cols = if i < nw / 2 then input else hidden in
    weights := { mreg = i; addr = !addr; rows = hidden; cols } :: !weights;
    addr := !addr + (hidden * cols)
  done;
  let x_base = !addr in
  let h_out_base = x_base + (timesteps * input) in
  let dram_words = h_out_base + (timesteps * hidden) in
  {
    kind;
    hidden;
    input;
    timesteps;
    weights = List.rev !weights;
    x_base;
    h_out_base;
    dram_words;
  }

(* The weight loads and the state fills every program starts with. *)
let emit_init layout emit =
  List.iter
    (fun { mreg; addr; rows; cols } -> emit (Instr.M_rd { dst = mreg; addr; rows; cols }))
    layout.weights;
  emit (Instr.V_fill { dst = 1; len = layout.hidden; value = 0.0 });
  emit
    (match layout.kind with
    | Lstm -> Instr.V_fill { dst = 2; len = layout.hidden; value = 0.0 }
    (* the ones vector for 1-z *)
    | Gru -> Instr.V_fill { dst = 2; len = layout.hidden; value = 1.0 })

(* One timestep: each step hands its instructions to [emit] in program
   order. *)

let lstm_step layout t emit =
  let h = layout.hidden and input = layout.input in
  let x_addr = layout.x_base + (t * input) in
  let h_addr = layout.h_out_base + (t * h) in
  emit (Instr.V_rd { dst = 0; addr = x_addr; len = input });
  (* Gate pre-activations: W* x + U* h. *)
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
  emit (Instr.Act { dst = 3; src = 3; f = Instr.Sigmoid }); (* i *)
  emit (Instr.Act { dst = 4; src = 4; f = Instr.Sigmoid }); (* f *)
  emit (Instr.Act { dst = 5; src = 5; f = Instr.Tanh }); (* g *)
  emit (Instr.Act { dst = 6; src = 6; f = Instr.Sigmoid }); (* o *)
  emit (Instr.Vv_mul { dst = 9; a = 4; b = 2 }); (* f*c *)
  emit (Instr.Vv_mul { dst = 10; a = 3; b = 5 }); (* i*g *)
  emit (Instr.Vv_add { dst = 2; a = 9; b = 10 }); (* c' *)
  emit (Instr.Act { dst = 11; src = 2; f = Instr.Tanh });
  emit (Instr.Vv_mul { dst = 1; a = 6; b = 11 }); (* h' *)
  emit (Instr.V_wr { src = 1; addr = h_addr; len = h })

let gru_step layout t emit =
  let h = layout.hidden and input = layout.input in
  let x_addr = layout.x_base + (t * input) in
  let h_addr = layout.h_out_base + (t * h) in
  emit (Instr.V_rd { dst = 0; addr = x_addr; len = input });
  (* r gate *)
  emit (Instr.Mvm { dst = 3; mat = 0; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 3; src = 1 });
  emit (Instr.Vv_add { dst = 3; a = 3; b = 8 });
  emit (Instr.Act { dst = 3; src = 3; f = Instr.Sigmoid });
  (* z gate *)
  emit (Instr.Mvm { dst = 4; mat = 1; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 4; src = 1 });
  emit (Instr.Vv_add { dst = 4; a = 4; b = 8 });
  emit (Instr.Act { dst = 4; src = 4; f = Instr.Sigmoid });
  (* candidate: n = tanh(Wn x + Un (r*h)) *)
  emit (Instr.Vv_mul { dst = 9; a = 3; b = 1 });
  emit (Instr.Mvm { dst = 5; mat = 2; src = 0 });
  emit (Instr.Mvm { dst = 8; mat = 5; src = 9 });
  emit (Instr.Vv_add { dst = 5; a = 5; b = 8 });
  emit (Instr.Act { dst = 5; src = 5; f = Instr.Tanh });
  (* h' = (1 - z)*n + z*h *)
  emit (Instr.Vv_sub { dst = 11; a = 2; b = 4 });
  emit (Instr.Vv_mul { dst = 12; a = 11; b = 5 });
  emit (Instr.Vv_mul { dst = 13; a = 4; b = 1 });
  emit (Instr.Vv_add { dst = 1; a = 12; b = 13 });
  emit (Instr.V_wr { src = 1; addr = h_addr; len = h })

let generate kind ~hidden ~input ~timesteps =
  if hidden <= 0 || input <= 0 || timesteps <= 0 then
    invalid_arg "Codegen.generate: dimensions must be positive";
  let layout = make_layout kind ~hidden ~input ~timesteps in
  let step = match kind with Lstm -> lstm_step | Gru -> gru_step in
  (* The weight loads, two fills, then the steps (as long as a dry run
     of the first), written straight into the program's array. *)
  let step_length = ref 0 in
  step layout 0 (fun _ -> incr step_length);
  let n = weight_count kind + 2 + (timesteps * !step_length) in
  let instrs = Array.make n Instr.Nop in
  let pos = ref 0 in
  let emit i =
    instrs.(!pos) <- i;
    incr pos
  in
  emit_init layout emit;
  for t = 0 to timesteps - 1 do
    step layout t emit
  done;
  assert (!pos = n);
  ({ Program.instrs; vregs = 16; mregs = weight_count kind }, layout)

let generate_looped kind ~hidden ~input ~timesteps =
  if hidden <= 0 || input <= 0 || timesteps <= 0 then
    invalid_arg "Codegen.generate_looped: dimensions must be positive";
  let layout = make_layout kind ~hidden ~input ~timesteps in
  let instrs = ref [] in
  let emit i = instrs := i :: !instrs in
  emit_init layout emit;
  emit (Instr.Loop { count = timesteps });
  (* The body is timestep 0's instructions with the DRAM accesses
     turned into loop-indexed ones. *)
  (match kind with Lstm -> lstm_step | Gru -> gru_step) layout 0 (fun instr ->
      emit
        (match instr with
        | Instr.V_rd { dst; addr; len } when addr = layout.x_base ->
          Instr.V_rd_i { dst; base = addr; stride = input; len }
        | Instr.V_wr { src; addr; len } when addr = layout.h_out_base ->
          Instr.V_wr_i { src; base = addr; stride = hidden; len }
        | other -> other));
  emit Instr.End_loop;
  (Program.make ~vregs:16 ~mregs:(weight_count kind) (List.rev !instrs), layout)

let init_dram ~rng layout =
  let dram = Array.make layout.dram_words 0.0 in
  let fill base count =
    for i = base to base + count - 1 do
      dram.(i) <- Mlv_util.Rng.float rng 1.0 -. 0.5
    done
  in
  List.iter (fun w -> fill w.addr (w.rows * w.cols)) layout.weights;
  fill layout.x_base (layout.timesteps * layout.input);
  dram

(* Float64 reference recurrences reading the same DRAM layout. *)

let read_matrix dram (w : weight_spec) =
  Array.init w.rows (fun r -> Array.sub dram (w.addr + (r * w.cols)) w.cols)

let matvec m v =
  Array.map
    (fun row ->
      let acc = ref 0.0 in
      Array.iteri (fun i x -> acc := !acc +. (x *. v.(i))) row;
      !acc)
    m

let vmap2 f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))
let sigmoid x = 1.0 /. (1.0 +. exp (-.x))

let golden layout dram =
  let w i = read_matrix dram (List.nth layout.weights i) in
  let x t = Array.sub dram (layout.x_base + (t * layout.input)) layout.input in
  let h = ref (Array.make layout.hidden 0.0) in
  match layout.kind with
  | Lstm ->
    let wi = w 0 and wf = w 1 and wg = w 2 and wo = w 3 in
    let ui = w 4 and uf = w 5 and ug = w 6 and uo = w 7 in
    let c = ref (Array.make layout.hidden 0.0) in
    Array.init layout.timesteps (fun t ->
        let xt = x t in
        let i = Array.map sigmoid (vmap2 ( +. ) (matvec wi xt) (matvec ui !h)) in
        let f = Array.map sigmoid (vmap2 ( +. ) (matvec wf xt) (matvec uf !h)) in
        let g = Array.map tanh (vmap2 ( +. ) (matvec wg xt) (matvec ug !h)) in
        let o = Array.map sigmoid (vmap2 ( +. ) (matvec wo xt) (matvec uo !h)) in
        c := vmap2 ( +. ) (vmap2 ( *. ) f !c) (vmap2 ( *. ) i g);
        h := vmap2 ( *. ) o (Array.map tanh !c);
        Array.copy !h)
  | Gru ->
    let wr = w 0 and wz = w 1 and wn = w 2 in
    let ur = w 3 and uz = w 4 and un = w 5 in
    Array.init layout.timesteps (fun t ->
        let xt = x t in
        let r = Array.map sigmoid (vmap2 ( +. ) (matvec wr xt) (matvec ur !h)) in
        let z = Array.map sigmoid (vmap2 ( +. ) (matvec wz xt) (matvec uz !h)) in
        let rh = vmap2 ( *. ) r !h in
        let n = Array.map tanh (vmap2 ( +. ) (matvec wn xt) (matvec un rh)) in
        h :=
          vmap2 ( +. )
            (vmap2 ( *. ) (Array.map (fun zi -> 1.0 -. zi) z) n)
            (vmap2 ( *. ) z !h);
        Array.copy !h)
