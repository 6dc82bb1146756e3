type t = { instrs : Instr.t array; vregs : int; mregs : int }

let make ?(vregs = 32) ?(mregs = 16) instrs =
  { instrs = Array.of_list instrs; vregs; mregs }

let length p = Array.length p.instrs
let to_list p = Array.to_list p.instrs

let validate p =
  let errors = ref [] in
  let err i fmt =
    Printf.ksprintf (fun s -> errors := Printf.sprintf "instr %d: %s" i s :: !errors) fmt
  in
  let vwritten = Array.make p.vregs false in
  let mwritten = Array.make p.mregs false in
  let loop_depth = ref 0 in
  Array.iteri
    (fun i instr ->
      let reg ~read kind file written r =
        if r < 0 || r >= Array.length written then
          err i "%s register %c%d out of bounds" kind file r
        else if not read then written.(r) <- true
        else if not written.(r) then err i "read of uninitialized %c%d" file r
      in
      Instr.iter_effects
        (fun access r _ ->
          match access with
          | Instr.Vread -> reg ~read:true "vector" 'v' vwritten r
          | Instr.Mread -> reg ~read:true "matrix" 'm' mwritten r
          | Instr.Vwrite -> reg ~read:false "vector" 'v' vwritten r
          | Instr.Mwrite -> reg ~read:false "matrix" 'm' mwritten r
          | _ -> ())
        instr;
      (match instr with
      | Instr.V_rd { len; _ } | Instr.V_wr { len; _ } | Instr.V_fill { len; _ }
      | Instr.V_rd_i { len; _ } | Instr.V_wr_i { len; _ } ->
        if len <= 0 then err i "non-positive vector length %d" len
      | Instr.M_rd { rows; cols; _ } ->
        if rows <= 0 || cols <= 0 then err i "non-positive matrix shape %dx%d" rows cols
      | Instr.Loop { count } -> if count <= 0 then err i "non-positive loop count %d" count
      | Instr.Mvm _ | Instr.Vv_add _ | Instr.Vv_sub _ | Instr.Vv_mul _ | Instr.Act _
      | Instr.Nop | Instr.End_loop -> ());
      (match instr with
      | Instr.V_rd { addr; _ } | Instr.V_wr { addr; _ } | Instr.M_rd { addr; _ } ->
        if addr < 0 then err i "negative address %d" addr
      | Instr.V_rd_i { base; stride; _ } | Instr.V_wr_i { base; stride; _ } ->
        if base < 0 then err i "negative base address %d" base;
        if stride < 0 then err i "negative stride %d" stride
      | Instr.V_fill _ | Instr.Mvm _ | Instr.Vv_add _ | Instr.Vv_sub _ | Instr.Vv_mul _
      | Instr.Act _ | Instr.Nop | Instr.Loop _ | Instr.End_loop -> ());
      match instr with
      | Instr.Loop _ -> incr loop_depth
      | Instr.End_loop ->
        decr loop_depth;
        if !loop_depth < 0 then begin
          err i "endloop without matching loop";
          loop_depth := 0
        end
      | _ -> ())
    p.instrs;
  if !loop_depth > 0 then errors := "unterminated loop" :: !errors;
  List.rev !errors

let dep_predecessors p =
  let n = Array.length p.instrs in
  let preds = Array.make n [] in
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      if Instr.depends ~earlier:p.instrs.(j) ~later:p.instrs.(i) then
        preds.(i) <- j :: preds.(i)
    done;
    preds.(i) <- List.rev preds.(i)
  done;
  preds

let opcode_histogram p =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun instr ->
      let op = Instr.opcode instr in
      let cur = try Hashtbl.find tbl op with Not_found -> 0 in
      Hashtbl.replace tbl op (cur + 1))
    p.instrs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let pp fmt p =
  Array.iter (fun instr -> Format.fprintf fmt "%a@." Instr.pp instr) p.instrs
