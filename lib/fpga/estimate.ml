open Mlv_rtl

let ceil_div a b = (a + b - 1) / b

(* DSP48E2 multiplies 27x18; wider products tile quadratically. *)
let dsp_for_mul w =
  let tiles = ceil_div w 18 in
  tiles * tiles

(* BRAM36 stores 36kb; below 2kb a memory maps to distributed LUTRAM. *)
let ram_cost words width =
  let bits = words * width in
  if bits <= 2048 then Resource.make ~luts:(ceil_div bits 32) ()
  else begin
    let blocks = ceil_div bits (36 * 1024) in
    Resource.make ~bram_kb:(blocks * 36) ()
  end

let of_prim (p : Ast.prim) =
  match p with
  | Ast.P_and w | Ast.P_or w | Ast.P_xor w -> Resource.make ~luts:w ()
  | Ast.P_not w -> Resource.make ~luts:(ceil_div w 2) ()
  | Ast.P_mux w -> Resource.make ~luts:w ()
  | Ast.P_add w | Ast.P_sub w -> Resource.make ~luts:w ()
  | Ast.P_cmp_lt w | Ast.P_cmp_eq w -> Resource.make ~luts:(ceil_div w 2) ()
  | Ast.P_mul w ->
    if w <= 4 then Resource.make ~luts:(w * w) ()
    else Resource.make ~dsps:(dsp_for_mul w) ()
  | Ast.P_mac w ->
    Resource.add
      (if w <= 4 then Resource.make ~luts:(w * w) () else Resource.make ~dsps:(dsp_for_mul w) ())
      (Resource.make ~dffs:(2 * w) ())
  | Ast.P_reg w -> Resource.make ~dffs:w ()
  | Ast.P_ram { words; width } -> ram_cost words width
  | Ast.P_rom { words; width } -> ram_cost words width
  | Ast.P_const _ | Ast.P_concat _ | Ast.P_slice _ -> Resource.zero

let of_census census =
  List.fold_left
    (fun acc (p, n) -> Resource.add acc (Resource.scale n (of_prim p)))
    Resource.zero census

let of_module design name = of_census (Design.prim_census design name)

let memo design =
  let cache = Hashtbl.create 16 in
  fun name ->
    match Hashtbl.find_opt cache name with
    | Some r -> r
    | None ->
      let r = of_module design name in
      Hashtbl.add cache name r;
      r
