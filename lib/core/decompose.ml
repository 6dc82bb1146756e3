open Mlv_rtl
module Check = Mlv_eqcheck.Check
module Estimate = Mlv_fpga.Estimate
module Resource = Mlv_fpga.Resource

type config = {
  control_modules : string list;
  eq : Check.config;
  enable_intra : bool;
  simplify : bool;
}

let default_config =
  { control_modules = []; eq = Check.default_config; enable_intra = true; simplify = false }

(* Rebuild the design with every basic module simplified. *)
let simplify_design design =
  Design.of_modules
    (List.map
       (fun (m : Ast.module_def) ->
         if Ast.is_basic m then Transform.simplify m else m)
       (Design.modules design))

type stats = {
  leaf_blocks : int;
  dp_groups : int;
  pipe_groups : int;
  eq_checks : int;
  iterations : int;
}

type decomposition = {
  control : Soft_block.t;
  data : Soft_block.t;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Per-module analyses, shared by the runs of one session              *)
(* ------------------------------------------------------------------ *)

(* What a run learns about one module value.  It depends on nothing but
   that value (and, for [lanes], the equivalence-checking effort), so
   every run that meets physically the same module may reuse it. *)
type analysis = {
  basic : bool;
  formals : (string, Ast.port) Hashtbl.t Lazy.t; (* port by name *)
  mutable estimate : Resource.t option; (* leaf resources *)
  mutable lanes : (Check.config * (int * Resource.t) option * int) option;
      (* step 2's lanes under that effort, and the checks they cost *)
}

(* Ports by name.  [List.find] on the port list returns the first port
   of a name; the table is filled last to first so [Hashtbl.replace]
   keeps that one. *)
let port_table ports =
  let t = Hashtbl.create 8 in
  List.iter (fun (p : Ast.port) -> Hashtbl.replace t p.Ast.port_name p) (List.rev ports);
  t

(* By module name; the entries of one name are told apart by physical
   identity, never by structure. *)
type session = (string, (Ast.module_def * analysis) list) Hashtbl.t

let session () : session = Hashtbl.create 16

let analysis (session : session) (m : Ast.module_def) =
  let entries = Option.value ~default:[] (Hashtbl.find_opt session m.Ast.mod_name) in
  match List.find_opt (fun (m', _) -> m' == m) entries with
  | Some (_, a) -> a
  | None ->
    let a =
      {
        basic = Ast.is_basic m;
        formals = lazy (port_table m.Ast.ports);
        estimate = None;
        lanes = None;
      }
    in
    Hashtbl.replace session m.Ast.mod_name ((m, a) :: entries);
    a

(* ------------------------------------------------------------------ *)
(* Step 1: elaboration into the block graph                            *)
(* ------------------------------------------------------------------ *)

type blk = {
  path : string;
  bmodule : string; (* basic module name, or "prim:<name>" for residue *)
  is_control : bool;
  pins : (int * Ast.direction * int) list; (* global net, dir, width *)
}

let is_control_module config (m : Ast.module_def) =
  List.mem "control_path" m.Ast.attrs || List.mem m.Ast.mod_name config.control_modules

let elaborate config design analysis_of top =
  let prim_formals = Hashtbl.create 16 in
  let formals_of_prim p =
    match Hashtbl.find_opt prim_formals p with
    | Some t -> t
    | None ->
      let t = port_table (Ast.prim_ports p) in
      Hashtbl.add prim_formals p t;
      t
  in
  let blocks = ref [] in
  let nblocks = ref 0 in
  let next_net = ref 0 in
  let fresh_net () =
    let id = !next_net in
    incr next_net;
    id
  in
  let add_block path bmodule is_control pins =
    let id = !nblocks in
    incr nblocks;
    blocks := { path; bmodule; is_control; pins } :: !blocks;
    id
  in
  (* env maps local net/port names to global ids *)
  let rec walk path in_control (m : Ast.module_def) env =
    let resolve local =
      match Hashtbl.find_opt env local with
      | Some id -> id
      | None -> failwith (Printf.sprintf "Decompose: unresolved net %s in %s" local m.Ast.mod_name)
    in
    List.iter
      (fun (n : Ast.net) -> Hashtbl.replace env n.Ast.net_name (fresh_net ()))
      m.Ast.nets;
    List.iter
      (fun (inst : Ast.instance) ->
        let ipath = if path = "" then inst.Ast.inst_name else path ^ "." ^ inst.Ast.inst_name in
        match inst.Ast.master with
        | Ast.M_prim p ->
          (* Residue primitive in a non-basic module: its own block. *)
          let formals = formals_of_prim p in
          let pins =
            List.map
              (fun (c : Ast.conn) ->
                let port = Hashtbl.find formals c.Ast.formal in
                (resolve c.Ast.actual, port.Ast.dir, port.Ast.width))
              inst.Ast.conns
          in
          ignore (add_block ipath ("prim:" ^ Ast.prim_name p) in_control pins)
        | Ast.M_module child_name ->
          let child, info = analysis_of child_name in
          let child_control = in_control || is_control_module config child in
          if info.basic then begin
            let formals = Lazy.force info.formals in
            let pins =
              List.map
                (fun (c : Ast.conn) ->
                  let port = Hashtbl.find formals c.Ast.formal in
                  (resolve c.Ast.actual, port.Ast.dir, port.Ast.width))
                inst.Ast.conns
            in
            ignore (add_block ipath child_name child_control pins)
          end
          else begin
            let child_env = Hashtbl.create 16 in
            List.iter
              (fun (c : Ast.conn) ->
                Hashtbl.replace child_env c.Ast.formal (resolve c.Ast.actual))
              inst.Ast.conns;
            List.iter
              (fun (p : Ast.port) ->
                if not (Hashtbl.mem child_env p.Ast.port_name) then
                  Hashtbl.replace child_env p.Ast.port_name (fresh_net ()))
              child.Ast.ports;
            walk ipath child_control child child_env
          end)
      m.Ast.instances
  in
  let top_def = Design.find_exn design top in
  let env = Hashtbl.create 16 in
  List.iter (fun (p : Ast.port) -> Hashtbl.replace env p.Ast.port_name (fresh_net ())) top_def.Ast.ports;
  (* If the top itself is basic there is nothing to decompose into. *)
  walk "" (is_control_module config top_def) top_def env;
  let blocks = Array.of_list (List.rev !blocks) in
  (* Per-net users -> aggregated directed edges between blocks. *)
  let drivers : (int, (int * int) list) Hashtbl.t = Hashtbl.create 256 in
  let sinks : (int, (int * int) list) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun b blk ->
      List.iter
        (fun (net, dir, width) ->
          let tbl = match dir with Ast.Output -> drivers | Ast.Input -> sinks in
          let cur = try Hashtbl.find tbl net with Not_found -> [] in
          Hashtbl.replace tbl net ((b, width) :: cur))
        blk.pins)
    blocks;
  let edges : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun net ds ->
      match Hashtbl.find_opt sinks net with
      | None -> ()
      | Some ss ->
        List.iter
          (fun (d, width) ->
            List.iter
              (fun (s, _) ->
                if d <> s then begin
                  let cur = try Hashtbl.find edges (d, s) with Not_found -> 0 in
                  Hashtbl.replace edges (d, s) (cur + width)
                end)
              ss)
          ds)
    drivers;
  (blocks, edges)

(* ------------------------------------------------------------------ *)
(* Equivalence with caching                                            *)
(* ------------------------------------------------------------------ *)

type eq_ctx = {
  design : Design.t;
  eq_config : Check.config;
  cache : (string * string, bool) Hashtbl.t;
  mutable checks : int;
}

let modules_equivalent ctx a b =
  if a = b then true
  else begin
    let key = if a < b then (a, b) else (b, a) in
    match Hashtbl.find_opt ctx.cache key with
    | Some r -> r
    | None ->
      let r =
        match (Design.find ctx.design a, Design.find ctx.design b) with
        | Some ma, Some mb when Ast.is_basic ma && Ast.is_basic mb ->
          ctx.checks <- ctx.checks + 1;
          Check.modules_equivalent ~config:ctx.eq_config ma mb
        | _ -> false
      in
      Hashtbl.replace ctx.cache key r;
      r
  end

(* Tree equivalence: same structure, leaf modules pairwise equivalent. *)
let rec trees_equivalent ctx a b =
  match (a, b) with
  | Soft_block.Leaf la, Soft_block.Leaf lb ->
    la.Soft_block.module_name = lb.Soft_block.module_name
    || modules_equivalent ctx la.Soft_block.module_name lb.Soft_block.module_name
  | Soft_block.Node na, Soft_block.Node nb ->
    na.Soft_block.composition = nb.Soft_block.composition
    && List.length na.Soft_block.children = List.length nb.Soft_block.children
    && List.for_all2 (trees_equivalent ctx) na.Soft_block.children nb.Soft_block.children
  | Soft_block.Leaf _, Soft_block.Node _ | Soft_block.Node _, Soft_block.Leaf _ -> false

(* ------------------------------------------------------------------ *)
(* Step 2: intra-block data parallelism                                *)
(* ------------------------------------------------------------------ *)

(* For one basic module, try to split it into equivalent lanes.
   Returns the per-lane component count (>= 2) and lane resources. *)
let intra_lanes ctx module_name =
  match Design.find ctx.design module_name with
  | None -> None
  | Some m when not (Ast.is_basic m) -> None
  | Some m -> (
    let g = Graph.build ctx.design m in
    match Graph.components g with
    | [] | [ _ ] -> None
    | comps ->
      let extracted =
        List.mapi
          (fun i indices ->
            Extract.component ~name:(Printf.sprintf "%s$lane%d" module_name i) ctx.design
              m indices)
          comps
      in
      (match extracted with
      | [] -> None
      | first :: rest ->
        if
          List.for_all
            (fun other ->
              ctx.checks <- ctx.checks + 1;
              Check.modules_equivalent ~config:ctx.eq_config first other)
            rest
        then begin
          let lane_resources =
            Estimate.of_census
              (List.filter_map
                 (fun (inst : Ast.instance) ->
                   match inst.Ast.master with
                   | Ast.M_prim p -> Some (p, 1)
                   | Ast.M_module _ -> None)
                 first.Ast.instances)
          in
          Some (List.length comps, lane_resources)
        end
        else None))

(* ------------------------------------------------------------------ *)
(* Cluster graph for steps 3-5                                         *)
(* ------------------------------------------------------------------ *)

type cluster = {
  mutable alive : bool;
  mutable tree : Soft_block.t;
}

type cgraph = {
  nodes : cluster array;
  cedges : (int * int, int) Hashtbl.t; (* directed, aggregated bits *)
  mutable alias : int array; (* node id -> representative *)
}

let rec repr g i = if g.alias.(i) = i then i else repr g g.alias.(i)

(* The quotient of [cedges] under [repr], built in one pass:
   [succs.(r)] maps each successor representative of representative [r]
   to the bits from [r] to it, and [preds.(r)] each predecessor to the
   bits from it to [r]. *)
type adjacency = {
  succs : (int, int) Hashtbl.t array;
  preds : (int, int) Hashtbl.t array;
}

let adjacency g =
  let n = Array.length g.nodes in
  let succs = Array.init n (fun _ -> Hashtbl.create 4) in
  let preds = Array.init n (fun _ -> Hashtbl.create 4) in
  let add tbl k w = Hashtbl.replace tbl k (w + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  Hashtbl.iter
    (fun (s, d) w ->
      let rs = repr g s and rd = repr g d in
      if rs <> rd then begin
        add succs.(rs) rd w;
        add preds.(rd) rs w
      end)
    g.cedges;
  { succs; preds }

let edge_bits adj a b = Option.value ~default:0 (Hashtbl.find_opt adj.succs.(a) b)

(* Sorted neighbour representatives. *)
let neighbours tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let alive_ids g =
  Array.to_list (Array.mapi (fun i c -> (i, c)) g.nodes)
  |> List.filter_map (fun (i, c) -> if c.alive && g.alias.(i) = i then Some i else None)

(* Merge [ids] into the first one, installing [tree]. *)
let merge g ids tree =
  match ids with
  | [] -> invalid_arg "Decompose.merge: empty"
  | keep :: rest ->
    g.nodes.(keep).tree <- tree;
    List.iter
      (fun i ->
        g.nodes.(i).alive <- false;
        g.alias.(i) <- keep)
      rest;
    keep

(* ------------------------------------------------------------------ *)
(* Step 3: inter-block data parallelism                                *)
(* ------------------------------------------------------------------ *)

(* The "unit shape" of a tree: a data-parallel node contributes its
   child shape, so absorbing into an existing group is uniform. *)
let dp_units tree =
  match tree with
  | Soft_block.Node { Soft_block.composition = Soft_block.Data_parallel; children; _ } ->
    children
  | t -> [ t ]

let step3 ctx g counter =
  let changed = ref false in
  let ids = alive_ids g in
  let adj = adjacency g in
  (* Group alive nodes by (preds, succs); within each group, merge
     equivalence classes of unit shape. *)
  let by_context = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let key = (neighbours adj.preds.(i), neighbours adj.succs.(i)) in
      let cur = try Hashtbl.find by_context key with Not_found -> [] in
      Hashtbl.replace by_context key (i :: cur))
    ids;
  Hashtbl.iter
    (fun _ members ->
      let members = List.rev members in
      if List.length members >= 2 then begin
        (* Partition members into equivalence classes. *)
        let classes : (int * int list ref) list ref = ref [] in
        List.iter
          (fun i ->
            let unit_i = List.hd (dp_units g.nodes.(i).tree) in
            let rec assign = function
              | [] ->
                classes := !classes @ [ (i, ref [ i ]) ]
              | (rep, bucket) :: rest ->
                let unit_rep = List.hd (dp_units g.nodes.(rep).tree) in
                if trees_equivalent ctx unit_i unit_rep then bucket := i :: !bucket
                else assign rest
            in
            assign !classes)
          members;
        List.iter
          (fun (_, bucket) ->
            let ids = List.rev !bucket in
            if List.length ids >= 2 then begin
              let units = List.concat_map (fun i -> dp_units g.nodes.(i).tree) ids in
              incr counter;
              let tree =
                Soft_block.data_par ~name:(Printf.sprintf "dp%d" !counter) units
              in
              ignore (merge g ids tree);
              changed := true
            end)
          !classes
      end)
    by_context;
  !changed

(* ------------------------------------------------------------------ *)
(* Step 4: pipeline parallelism                                        *)
(* ------------------------------------------------------------------ *)

let pipe_parts tree =
  match tree with
  | Soft_block.Node
      { Soft_block.composition = Soft_block.Pipeline; children; link_bits; _ } ->
    (children, link_bits)
  | t -> ([ t ], [])

(* [u] can absorb its successor: [u] has a single successor [v], [v] a
   single predecessor (so [u]), and no edge runs back from [v] to [u]
   (that would be a loop, not a pipeline). *)
let pipe_successor adj u =
  if Hashtbl.length adj.succs.(u) <> 1 then None
  else begin
    let v = Hashtbl.fold (fun v _ _ -> v) adj.succs.(u) (-1) in
    if Hashtbl.length adj.preds.(v) = 1 && not (edge_bits adj v u > 0) then Some v else None
  end

(* Merges the lowest-numbered node that can absorb its successor, until
   none can.  The adjacency is updated in place: after [v] merges into
   [u], only [u] and its predecessors can change whether they qualify. *)
let step4 g counter =
  let adj = adjacency g in
  let module S = Set.Make (Int) in
  let qualifies u = Option.is_some (pipe_successor adj u) in
  let ready = ref (S.of_list (List.filter qualifies (alive_ids g))) in
  let changed = ref false in
  let rec scan () =
    match S.min_elt_opt !ready with
    | None -> ()
    | Some u ->
      let v = Option.get (pipe_successor adj u) in
      let cu, lu = pipe_parts g.nodes.(u).tree in
      let cv, lv = pipe_parts g.nodes.(v).tree in
      let bits = edge_bits adj u v in
      incr counter;
      let tree =
        Soft_block.pipeline
          ~name:(Printf.sprintf "pipe%d" !counter)
          ~link_bits:(lu @ [ bits ] @ lv)
          (cu @ cv)
      in
      ignore (merge g [ u; v ] tree);
      changed := true;
      (* [u]'s only successor was [v] and [v]'s only predecessor [u], so
         [u] takes over [v]'s successors; a zero-bit edge from [v] back
         to [u] becomes internal. *)
      Hashtbl.reset adj.succs.(u);
      Hashtbl.remove adj.preds.(u) v;
      Hashtbl.iter
        (fun x w ->
          if x <> u then begin
            Hashtbl.replace adj.succs.(u) x w;
            Hashtbl.remove adj.preds.(x) v;
            Hashtbl.replace adj.preds.(x) u w
          end)
        adj.succs.(v);
      Hashtbl.reset adj.succs.(v);
      Hashtbl.reset adj.preds.(v);
      let recheck x = ready := if qualifies x then S.add x !ready else S.remove x !ready in
      ready := S.remove v !ready;
      recheck u;
      Hashtbl.iter (fun x _ -> recheck x) adj.preds.(u);
      scan ()
  in
  scan ();
  !changed

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let leaf_resources estimate bmodule =
  if String.length bmodule >= 5 && String.sub bmodule 0 5 = "prim:" then
    (* Residue primitive: negligible, use a nominal cost. *)
    Resource.make ~luts:1 ()
  else estimate bmodule

let run_untraced ~config ~session design ~top =
  match Design.find design top with
  | None -> Error (Printf.sprintf "no module named %s" top)
  | Some _ -> (
    match Design.validate design with
    | _ :: _ as errs ->
      Error (Printf.sprintf "design does not validate: %s" (String.concat "; " errs))
    | [] ->
      let design = if config.simplify then simplify_design design else design in
      (* Each module name resolves to its value and its analysis once
         per run. *)
      let masters = Hashtbl.create 16 in
      let analysis_of name =
        match Hashtbl.find_opt masters name with
        | Some ma -> ma
        | None ->
          let m = Design.find_exn design name in
          let ma = (m, analysis session m) in
          Hashtbl.add masters name ma;
          ma
      in
      let blocks, edges = elaborate config design analysis_of top in
      if Array.length blocks = 0 then Error "top module contains no instances"
      else begin
        let ctx =
          { design; eq_config = config.eq; cache = Hashtbl.create 64; checks = 0 }
        in
        (* Leaf blocks are basic modules, whose estimate depends on the
           module alone. *)
        let estimate name =
          let _, a = analysis_of name in
          match a.estimate with
          | Some r -> r
          | None ->
            let r = Estimate.of_module design name in
            a.estimate <- Some r;
            r
        in
        (* Residue blocks connected only to control blocks fold into
           the control path (case-study adjustment). *)
        (* Chains of residue primitives require iterating the fold
           to a fixpoint. *)
        let n_blocks = Array.length blocks in
        let control_flag = Array.init n_blocks (fun i -> blocks.(i).is_control) in
        let is_residue i =
          String.length blocks.(i).bmodule >= 5
          && String.sub blocks.(i).bmodule 0 5 = "prim:"
        in
        let neighbors = Array.make n_blocks [] in
        Hashtbl.iter
          (fun (s, d) _ ->
            neighbors.(s) <- d :: neighbors.(s);
            neighbors.(d) <- s :: neighbors.(d))
          edges;
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iteri
            (fun i _ ->
              if
                (not control_flag.(i))
                && is_residue i
                && List.for_all
                     (fun j -> control_flag.(j) || is_residue j)
                     neighbors.(i)
                && List.exists (fun j -> control_flag.(j)) neighbors.(i)
              then begin
                control_flag.(i) <- true;
                changed := true
              end)
            blocks
        done;
        let is_control i = control_flag.(i) in
        let control_ids = ref [] and data_ids = ref [] in
        Array.iteri
          (fun i _ -> if is_control i then control_ids := i :: !control_ids else data_ids := i :: !data_ids)
          blocks;
        if !control_ids = [] then
          Error "no control path found (mark it with (* control_path *) or config.control_modules)"
        else if !data_ids = [] then Error "no data path blocks found"
        else begin
          (* Control soft block: kept as one unit. *)
          let control_leaves =
            List.rev_map
              (fun i ->
                Soft_block.leaf
                  ~name:(Printf.sprintf "ctl_%s" blocks.(i).path)
                  ~module_name:blocks.(i).bmodule ~instance_path:blocks.(i).path
                  ~resources:(leaf_resources estimate blocks.(i).bmodule)
                  ~role:Soft_block.Control ())
              !control_ids
          in
          let control =
            match control_leaves with
            | [ single ] -> single
            | several -> Soft_block.pipeline ~name:"control" ~role:Soft_block.Control several
          in
          (* Initial data-path clusters: one per block, with step 2's
             intra-block lanes where found. *)
          let intra_cache = Hashtbl.create 8 in
          let initial_tree i =
            let b = blocks.(i) in
            let plain () =
              Soft_block.leaf ~name:b.path ~module_name:b.bmodule ~instance_path:b.path
                ~resources:(leaf_resources estimate b.bmodule) ()
            in
            if not config.enable_intra then plain ()
            else begin
              let lanes =
                match Hashtbl.find_opt intra_cache b.bmodule with
                | Some l -> l
                | None when not (Design.mem design b.bmodule) -> None
                | None ->
                  (* A reused analysis counts its checks as if run. *)
                  let _, a = analysis_of b.bmodule in
                  let l =
                    match a.lanes with
                    | Some (eq, l, checks) when eq = config.eq ->
                      ctx.checks <- ctx.checks + checks;
                      l
                    | Some _ | None ->
                      let before = ctx.checks in
                      let l = intra_lanes ctx b.bmodule in
                      a.lanes <- Some (config.eq, l, ctx.checks - before);
                      l
                  in
                  Hashtbl.replace intra_cache b.bmodule l;
                  l
              in
              match lanes with
              | Some (n, lane_res) when n >= 2 ->
                Soft_block.data_par ~name:(b.path ^ "$lanes")
                  (List.init n (fun k ->
                       Soft_block.leaf
                         ~name:(Printf.sprintf "%s$lane%d" b.path k)
                         ~module_name:(b.bmodule ^ "$lane") ~instance_path:b.path
                         ~resources:lane_res ()))
              | Some _ | None -> plain ()
            end
          in
          let nodes =
            Array.map (fun _ -> { alive = false; tree = Soft_block.leaf ~name:"x" ~module_name:"x" ~resources:Resource.zero () }) blocks
          in
          List.iter (fun i -> nodes.(i) <- { alive = true; tree = initial_tree i }) !data_ids;
          (* Data-path edges only. *)
          let cedges = Hashtbl.create 64 in
          Hashtbl.iter
            (fun (s, d) w ->
              if (not (is_control s)) && not (is_control d) then
                Hashtbl.replace cedges (s, d) w)
            edges;
          let g = { nodes; cedges; alias = Array.init (Array.length blocks) Fun.id } in
          (* Step 5: iterate 3 and 4 to fixpoint. *)
          let counter = ref 0 in
          let iterations = ref 0 in
          let continue = ref true in
          while !continue do
            incr iterations;
            let c3 = step3 ctx g counter in
            let c4 = step4 g counter in
            continue := c3 || c4
          done;
          let roots = alive_ids g |> List.map (fun i -> g.nodes.(i).tree) in
          let data =
            match roots with
            | [] -> assert false
            | [ single ] -> single
            | several -> Soft_block.pipeline ~name:"data_root" several
          in
          let stats =
            {
              leaf_blocks = Array.length blocks;
              dp_groups = Soft_block.count_composition data Soft_block.Data_parallel;
              pipe_groups = Soft_block.count_composition data Soft_block.Pipeline;
              eq_checks = ctx.checks;
              iterations = !iterations;
            }
          in
          Ok { control; data; stats }
        end
      end)

let run ?(config = default_config) ?(session = session ()) design ~top =
  Mlv_obs.Obs.Span.with_ "decompose" (fun () -> run_untraced ~config ~session design ~top)
