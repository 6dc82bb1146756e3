(* Reference oracle for [Scale_out.reorder]: the original
   implementation, which deduplicates dependence edges through a
   [(int * int, unit) Hashtbl.t].  The differential tests check the
   production reorderer against it byte for byte. *)

open Mlv_isa

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
  (* Dependence edges via last-writer / reader tracking. *)
  let edges = Hashtbl.create (4 * n) in
  let succs = Array.make n [] in
  let pred_count = Array.make n 0 in
  let add_edge i j =
    if i <> j && not (Hashtbl.mem edges (i, j)) then begin
      Hashtbl.replace edges (i, j) ();
      succs.(i) <- j :: succs.(i);
      pred_count.(j) <- pred_count.(j) + 1
    end
  in
  let last_vwrite = Array.make p.Program.vregs (-1) in
  let vreaders = Array.make p.Program.vregs [] in
  let last_mwrite = Array.make p.Program.mregs (-1) in
  let mreaders = Array.make p.Program.mregs [] in
  let mem_writes = ref [] (* (addr, len, idx) *) in
  let mem_reads = ref [] in
  let overlap (a, la) (b, lb) = a < b + lb && b < a + la in
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
      (match e.Instr.mem_read with
      | Some range ->
        List.iter (fun (a, l, j) -> if overlap range (a, l) then add_edge j i) !mem_writes;
        mem_reads := (fst range, snd range, i) :: !mem_reads
      | None -> ());
      (match e.Instr.mem_write with
      | Some range ->
        List.iter (fun (a, l, j) -> if overlap range (a, l) then add_edge j i) !mem_writes;
        List.iter (fun (a, l, j) -> if overlap range (a, l) then add_edge j i) !mem_reads;
        mem_writes := (fst range, snd range, i) :: !mem_writes
      | None -> ());
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
     order otherwise. *)
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
