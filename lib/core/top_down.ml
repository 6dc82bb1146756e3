open Mlv_rtl
module Estimate = Mlv_fpga.Estimate
module Resource = Mlv_fpga.Resource

type ctx = {
  design : Design.t;
  eq : Decompose.eq_ctx;  (* cached equivalence of basic masters *)
  tree_cache : (string, Soft_block.t) Hashtbl.t;
  estimate : string -> Resource.t; (* Estimate.memo of [design] *)
}

let master_name (inst : Ast.instance) =
  match inst.Ast.master with
  | Ast.M_module name -> name
  | Ast.M_prim p -> "prim:" ^ Ast.prim_name p

let leaf_for ctx ~path (inst : Ast.instance) =
  match inst.Ast.master with
  | Ast.M_prim p ->
    Soft_block.leaf ~name:path ~module_name:("prim:" ^ Ast.prim_name p)
      ~instance_path:path ~resources:(Estimate.of_prim p) ()
  | Ast.M_module name ->
    Soft_block.leaf ~name:path ~module_name:name ~instance_path:path
      ~resources:(ctx.estimate name) ()

(* Decompose the body of one module: group its instances into
   data-parallel families and pipeline chains following Fig. 3b. *)
let rec subtree ctx name =
  match Hashtbl.find_opt ctx.tree_cache name with
  | Some t -> t
  | None ->
    let m = Design.find_exn ctx.design name in
    let t =
      if Ast.is_basic m then
        Soft_block.leaf ~name:m.Ast.mod_name ~module_name:m.Ast.mod_name
          ~instance_path:m.Ast.mod_name ~resources:(ctx.estimate name)
          ()
      else decompose_body ctx m ~prefix:m.Ast.mod_name
    in
    Hashtbl.replace ctx.tree_cache name t;
    t

and child_tree ctx ~path (inst : Ast.instance) =
  match inst.Ast.master with
  | Ast.M_prim _ -> leaf_for ctx ~path inst
  | Ast.M_module child -> (
    let m = Design.find_exn ctx.design child in
    if Ast.is_basic m then leaf_for ctx ~path inst else subtree ctx child)

and decompose_body ctx (m : Ast.module_def) ~prefix =
  let g = Graph.build ctx.design m in
  let n = Graph.node_count g in
  if n = 0 then
    Soft_block.leaf ~name:prefix ~module_name:m.Ast.mod_name ~instance_path:prefix
      ~resources:Resource.zero ()
  else begin
    (* Group instances into data-parallel families: equivalent
       masters with the same predecessor and successor sets. *)
    let family = Array.make n (-1) in
    let families = ref [] in
    for i = 0 to n - 1 do
      if family.(i) < 0 then begin
        let members = ref [ i ] in
        for j = i + 1 to n - 1 do
          if
            family.(j) < 0
            && Decompose.modules_equivalent ctx.eq
                 (master_name (Graph.instance g i))
                 (master_name (Graph.instance g j))
            && Graph.preds g i = Graph.preds g j
            && Graph.succs g i = Graph.succs g j
          then begin
            family.(j) <- i;
            members := j :: !members
          end
        done;
        family.(i) <- i;
        families := (i, List.rev !members) :: !families
      end
    done;
    let families = List.rev !families in
    (* Build the subtree of each family. *)
    let family_tree (rep, members) =
      let trees =
        List.map
          (fun i ->
            let inst = Graph.instance g i in
            child_tree ctx ~path:(prefix ^ "." ^ inst.Ast.inst_name) inst)
          members
      in
      match trees with
      | [ single ] -> (rep, single)
      | several ->
        ( rep,
          Soft_block.data_par
            ~name:(Printf.sprintf "%s.dp_%s" prefix (master_name (Graph.instance g rep)))
            several )
    in
    let nodes = List.map family_tree families in
    (* Quotient edges between family representatives. *)
    let fam_of i = family.(i) in
    let edge_bits a b =
      List.fold_left
        (fun acc (s, d, w) -> if fam_of s = a && fam_of d = b && a <> b then acc + w else acc)
        0 (Graph.edges g)
    in
    (* Topological order of families (by representative). *)
    let reps = List.map fst nodes in
    let indeg rep =
      List.length (List.filter (fun r -> r <> rep && edge_bits r rep > 0) reps)
    in
    let order =
      (* Kahn over the small quotient graph; fall back to declaration
         order inside ties for determinism. *)
      let remaining = ref reps in
      let out = ref [] in
      while !remaining <> [] do
        let ready =
          List.filter
            (fun r ->
              List.for_all
                (fun q -> q = r || (not (List.mem q !remaining)) || edge_bits q r = 0)
                reps)
            !remaining
        in
        match ready with
        | [] ->
          (* cycle: emit in declaration order *)
          out := List.rev_append !remaining !out;
          remaining := []
        | r :: _ ->
          out := r :: !out;
          remaining := List.filter (fun q -> q <> r) !remaining
      done;
      ignore indeg;
      List.rev !out
    in
    let ordered_trees = List.map (fun r -> List.assoc r nodes) order in
    match ordered_trees with
    | [ single ] -> single
    | several ->
      let link_bits =
        let rec links = function
          | a :: (b :: _ as rest) -> edge_bits a b :: links rest
          | _ -> []
        in
        links order
      in
      Soft_block.pipeline ~name:(prefix ^ ".pipe") ~link_bits several
  end

let run ?(config = Decompose.default_config) design ~top =
  match Design.find design top with
  | None -> Error (Printf.sprintf "no module named %s" top)
  | Some top_def -> (
    match Design.validate design with
    | _ :: _ as errs ->
      Error (Printf.sprintf "design does not validate: %s" (String.concat "; " errs))
    | [] ->
      let ctx =
        {
          design;
          eq =
            {
              Decompose.design;
              eq_config = config.Decompose.eq;
              cache = Hashtbl.create 32;
              checks = 0;
            };
          tree_cache = Hashtbl.create 32;
          estimate = Estimate.memo design;
        }
      in
      (* Split control and data at the top (paper Fig. 3a). *)
      let is_control_inst (inst : Ast.instance) =
        match inst.Ast.master with
        | Ast.M_module name ->
          Decompose.is_control_module config (Design.find_exn design name)
        | Ast.M_prim _ -> false
      in
      let control_insts, data_insts =
        List.partition is_control_inst top_def.Ast.instances
      in
      (* Top-level residue primitives whose neighbours are all control
         fold into the control block. *)
      let g = Graph.build design top_def in
      let control_idx = Hashtbl.create 8 in
      List.iteri
        (fun i inst -> if is_control_inst inst then Hashtbl.replace control_idx i ())
        top_def.Ast.instances;
      let folded = Hashtbl.create 8 in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iteri
          (fun i (inst : Ast.instance) ->
            let is_prim = match inst.Ast.master with Ast.M_prim _ -> true | _ -> false in
            if is_prim && not (Hashtbl.mem folded i) then begin
              let neighbours = Graph.preds g i @ Graph.succs g i in
              let is_residue j =
                match (Graph.instance g j).Ast.master with
                | Ast.M_prim _ -> true
                | Ast.M_module _ -> false
              in
              let controlish j = Hashtbl.mem control_idx j || Hashtbl.mem folded j in
              if
                neighbours <> []
                && List.for_all (fun j -> controlish j || is_residue j) neighbours
                && List.exists controlish neighbours
              then begin
                Hashtbl.replace folded i ();
                changed := true
              end
            end)
          top_def.Ast.instances
      done;
      let data_insts =
        List.filter
          (fun (inst : Ast.instance) ->
            match inst.Ast.master with
            | Ast.M_prim _ ->
              (* position lookup for fold table *)
              let rec index k = function
                | [] -> -1
                | x :: rest -> if x == inst then k else index (k + 1) rest
              in
              not (Hashtbl.mem folded (index 0 top_def.Ast.instances))
            | Ast.M_module _ -> true)
          data_insts
      in
      if control_insts = [] then
        Error
          "no control path found (mark it with (* control_path *) or config.control_modules)"
      else if data_insts = [] then Error "no data path blocks found"
      else begin
        let mark_control t =
          List.map
            (fun (l : Soft_block.leaf) ->
              Soft_block.Leaf { l with Soft_block.lrole = Soft_block.Control })
            (Soft_block.leaves t)
        in
        let control_leaves =
          List.concat_map
            (fun (inst : Ast.instance) ->
              mark_control (child_tree ctx ~path:("top." ^ inst.Ast.inst_name) inst))
            control_insts
        in
        let control =
          match control_leaves with
          | [ single ] -> single
          | several -> Soft_block.pipeline ~name:"control" ~role:Soft_block.Control several
        in
        (* Decompose the data side: rebuild a pseudo-module holding
           only the data instances so the grouping logic applies. *)
        let data_module = { top_def with Ast.instances = data_insts } in
        let data = decompose_body ctx data_module ~prefix:"top" in
        let stats =
          {
            Decompose.leaf_blocks =
              List.length (Soft_block.leaves data) + List.length control_leaves;
            dp_groups = Soft_block.count_composition data Soft_block.Data_parallel;
            pipe_groups = Soft_block.count_composition data Soft_block.Pipeline;
            eq_checks = ctx.eq.Decompose.checks;
            iterations = 1;
          }
        in
        Ok { Decompose.control; data; stats }
      end)
