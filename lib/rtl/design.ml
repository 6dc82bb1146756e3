type t = {
  table : (string, Ast.module_def) Hashtbl.t;
  mutable order : string list; (* reversed registration order *)
}

let create () = { table = Hashtbl.create 64; order = [] }

let add t (m : Ast.module_def) =
  if Hashtbl.mem t.table m.mod_name then
    invalid_arg (Printf.sprintf "Design.add: duplicate module %s" m.mod_name);
  Hashtbl.add t.table m.mod_name m;
  t.order <- m.mod_name :: t.order

let of_modules ms =
  let t = create () in
  List.iter (add t) ms;
  t

let find t name = Hashtbl.find_opt t.table name
let find_exn t name = Hashtbl.find t.table name
let mem t name = Hashtbl.mem t.table name

let modules t =
  List.rev_map (fun name -> Hashtbl.find t.table name) t.order

let children t name =
  match find t name with
  | None -> []
  | Some m ->
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (inst : Ast.instance) ->
        match inst.master with
        | Ast.M_prim _ -> None
        | Ast.M_module master ->
          if Hashtbl.mem seen master then None
          else begin
            Hashtbl.add seen master ();
            Some master
          end)
      m.instances

let top t =
  let instantiated = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (m : Ast.module_def) ->
      List.iter
        (fun (inst : Ast.instance) ->
          match inst.master with
          | Ast.M_module master -> Hashtbl.replace instantiated master ()
          | Ast.M_prim _ -> ())
        m.instances)
    t.table;
  let tops =
    List.filter (fun name -> not (Hashtbl.mem instantiated name)) (List.rev t.order)
  in
  match tops with
  | [ name ] -> find_exn t name
  | [] -> failwith "Design.top: no top module (hierarchy cycle?)"
  | names ->
    failwith
      (Printf.sprintf "Design.top: multiple top candidates: %s"
         (String.concat ", " names))

let topo_order t =
  (* Depth-first post-order over the hierarchy; leaves first. *)
  let visited = Hashtbl.create 64 in
  let in_stack = Hashtbl.create 64 in
  let out = ref [] in
  let rec visit name =
    if Hashtbl.mem in_stack name then
      failwith (Printf.sprintf "Design.topo_order: cycle through %s" name);
    if not (Hashtbl.mem visited name) then begin
      Hashtbl.add in_stack name ();
      List.iter (fun child -> if mem t child then visit child) (children t name);
      Hashtbl.remove in_stack name;
      Hashtbl.add visited name ();
      out := name :: !out
    end
  in
  List.iter visit (List.rev t.order);
  List.rev !out

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* Acyclicity (reported once, via topo_order). *)
  (try ignore (topo_order t) with Failure msg -> err "%s" msg);
  Hashtbl.iter
    (fun _ (m : Ast.module_def) ->
      let widths = Ast.width_table m in
      List.iter
        (fun (inst : Ast.instance) ->
          let master_ports =
            match inst.master with
            | Ast.M_prim p -> Some (Ast.prim_ports p)
            | Ast.M_module name -> (
              match find t name with
              | Some def -> Some def.ports
              | None ->
                err "%s.%s: unknown master module %s" m.mod_name inst.inst_name name;
                None)
          in
          match master_ports with
          | None -> ()
          | Some ports ->
            List.iter
              (fun (c : Ast.conn) ->
                match List.find_opt (fun (p : Ast.port) -> p.port_name = c.formal) ports with
                | None ->
                  err "%s.%s: no formal port %s" m.mod_name inst.inst_name c.formal
                | Some p -> (
                  match Hashtbl.find_opt widths c.actual with
                  | Some w when w <> p.width ->
                    err "%s.%s.%s: width mismatch (formal %d, net %s is %d)"
                      m.mod_name inst.inst_name c.formal p.width c.actual w
                  | Some _ -> ()
                  | None ->
                    err "%s.%s.%s: unknown net %s" m.mod_name inst.inst_name c.formal
                      c.actual))
              inst.conns)
        m.instances)
    t.table;
  List.rev !errors

(* Each module's census is counted into a table once (children's
   censuses memoised) and listed in [compare] order. *)
let prim_census t name =
  let memo : (string, (Ast.prim * int) list) Hashtbl.t = Hashtbl.create 64 in
  let rec census name =
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
      let m = find_exn t name in
      let counts : (Ast.prim, int) Hashtbl.t = Hashtbl.create 16 in
      let bump p n =
        Hashtbl.replace counts p (n + Option.value ~default:0 (Hashtbl.find_opt counts p))
      in
      List.iter
        (fun (inst : Ast.instance) ->
          match inst.master with
          | Ast.M_prim p -> bump p 1
          | Ast.M_module child -> List.iter (fun (p, n) -> bump p n) (census child))
        m.instances;
      let c = List.sort compare (Hashtbl.fold (fun p n acc -> (p, n) :: acc) counts []) in
      Hashtbl.add memo name c;
      c
  in
  census name

let flat_instance_count t name =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (prim_census t name)

let basic_modules t =
  List.filter_map
    (fun (m : Ast.module_def) -> if Ast.is_basic m then Some m.mod_name else None)
    (modules t)
