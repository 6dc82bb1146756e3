(* Reference oracle for [Scale_out.reorder]: the original
   implementation, which deduplicates dependence edges through a
   [(int * int, unit) Hashtbl.t] and compares every pair of memory
   accesses.  The differential tests check the production reorderer
   against it byte for byte.

   Memory has two namespaces, as in [Exec]: a [V_rd]/[V_wr] at or
   above [sync_base] is a mailbox access, in conflict only with
   another mailbox access at the same address; every other access is
   a DRAM interval, in conflict with any overlapping DRAM interval. *)

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
  let mem_writes = ref [] (* (sync, addr, len, idx) *) in
  let mem_reads = ref [] in
  let conflict (sa, a, la) (sb, b, lb) =
    match (sa, sb) with
    | true, true -> a = b
    | false, false -> a < b + lb && b < a + la
    | _ -> false
  in
  let is_sync = function
    | Instr.V_rd { addr; _ } | Instr.V_wr { addr; _ } -> addr >= sync_base
    | _ -> false
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
      let sync = is_sync instr in
      let hazards (a, l) =
        List.iter (fun (s, b, lb, j) -> if conflict (sync, a, l) (s, b, lb) then add_edge j i)
      in
      (match e.Instr.mem_read with
      | Some range ->
        hazards range !mem_writes;
        mem_reads := (sync, fst range, snd range, i) :: !mem_reads
      | None -> ());
      (match e.Instr.mem_write with
      | Some range ->
        hazards range !mem_writes;
        hazards range !mem_reads;
        mem_writes := (sync, fst range, snd range, i) :: !mem_writes
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
  let queue = Pqueue.create () in
  Array.iteri (fun i c -> if c = 0 then Pqueue.push queue (priority i) i) pred_count;
  let out = ref [] in
  let emitted = ref 0 in
  let rec drain () =
    match Pqueue.pop queue with
    | None -> ()
    | Some (_, i) ->
      out := instrs.(i) :: !out;
      incr emitted;
      List.iter
        (fun j ->
          pred_count.(j) <- pred_count.(j) - 1;
          if pred_count.(j) = 0 then Pqueue.push queue (priority j) j)
        succs.(i);
      drain ()
  in
  drain ();
  assert (!emitted = n);
  Program.make ~vregs:p.Program.vregs ~mregs:p.Program.mregs (List.rev !out)
  end
