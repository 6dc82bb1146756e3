module Union_find = Mlv_util.Union_find

type t = {
  insts : Ast.instance array;
  name_index : (string, int) Hashtbl.t;
  (* (src, dst) -> aggregated bits *)
  edge_tbl : (int * int, int) Hashtbl.t;
  succs : int list array;
  preds : int list array;
  reads_port : bool array;
  writes_port : bool array;
  (* net -> (drivers, sinks); -1 encodes the module boundary *)
  net_users : (string, int list * int list) Hashtbl.t;
  port_nets : (string, unit) Hashtbl.t;
}

let master_ports design (inst : Ast.instance) =
  match inst.master with
  | Ast.M_prim p -> Ast.prim_ports p
  | Ast.M_module name -> (
    match Design.find design name with
    | Some m -> m.ports
    | None -> failwith (Printf.sprintf "Graph.build: unknown master %s" name))

let build design (m : Ast.module_def) =
  let insts = Array.of_list m.instances in
  let n = Array.length insts in
  let name_index = Hashtbl.create (max 16 n) in
  Array.iteri (fun i (inst : Ast.instance) -> Hashtbl.replace name_index inst.inst_name i) insts;
  let port_nets = Hashtbl.create 16 in
  List.iter (fun (p : Ast.port) -> Hashtbl.replace port_nets p.port_name ()) m.ports;
  (* Collect per-net drivers and sinks.  The module's input ports are
     drivers of their nets; output ports are sinks (encoded as -1). *)
  let net_users : (string, int list * int list) Hashtbl.t = Hashtbl.create 64 in
  let add_driver net i =
    let d, s = try Hashtbl.find net_users net with Not_found -> ([], []) in
    Hashtbl.replace net_users net (i :: d, s)
  in
  let add_sink net i =
    let d, s = try Hashtbl.find net_users net with Not_found -> ([], []) in
    Hashtbl.replace net_users net (d, i :: s)
  in
  List.iter
    (fun (p : Ast.port) ->
      match p.dir with
      | Ast.Input -> add_driver p.port_name (-1)
      | Ast.Output -> add_sink p.port_name (-1))
    m.ports;
  Array.iteri
    (fun i (inst : Ast.instance) ->
      let ports = master_ports design inst in
      List.iter
        (fun (c : Ast.conn) ->
          match List.find_opt (fun (p : Ast.port) -> p.port_name = c.formal) ports with
          | None -> failwith (Printf.sprintf "Graph.build: no port %s on %s" c.formal inst.inst_name)
          | Some p -> (
            match p.dir with
            | Ast.Input -> add_sink c.actual i
            | Ast.Output -> add_driver c.actual i))
        inst.conns)
    insts;
  let edge_tbl = Hashtbl.create 64 in
  let reads_port = Array.make (max 1 n) false in
  let writes_port = Array.make (max 1 n) false in
  let widths = Ast.width_table m in
  Hashtbl.iter
    (fun net (drivers, sinks) ->
      let width = Option.value ~default:0 (Hashtbl.find_opt widths net) in
      List.iter
        (fun d ->
          List.iter
            (fun s ->
              if d = -1 && s >= 0 then reads_port.(s) <- true
              else if d >= 0 && s = -1 then writes_port.(d) <- true
              else if d >= 0 && s >= 0 && d <> s then begin
                let cur = try Hashtbl.find edge_tbl (d, s) with Not_found -> 0 in
                Hashtbl.replace edge_tbl (d, s) (cur + width)
              end)
            sinks)
        drivers)
    net_users;
  let succs = Array.make (max 1 n) [] in
  let preds = Array.make (max 1 n) [] in
  Hashtbl.iter
    (fun (d, s) _ ->
      succs.(d) <- s :: succs.(d);
      preds.(s) <- d :: preds.(s))
    edge_tbl;
  Array.iteri (fun i l -> succs.(i) <- List.sort_uniq compare l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.sort_uniq compare l) preds;
  { insts; name_index; edge_tbl; succs; preds; reads_port; writes_port; net_users; port_nets }

let node_count t = Array.length t.insts
let instance t i = t.insts.(i)
let index_of t name = Hashtbl.find_opt t.name_index name

let edges t =
  Hashtbl.fold (fun (s, d) w acc -> (s, d, w) :: acc) t.edge_tbl []
  |> List.sort compare

let edge_weight t a b = try Hashtbl.find t.edge_tbl (a, b) with Not_found -> 0
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let reads_port t i = t.reads_port.(i)
let writes_port t i = t.writes_port.(i)

let components ?(include_port_nets = false) t =
  let n = node_count t in
  if n = 0 then []
  else begin
    let uf = Union_find.create n in
    Hashtbl.iter
      (fun net (drivers, sinks) ->
        if include_port_nets || not (Hashtbl.mem t.port_nets net) then begin
          let members = List.filter (fun i -> i >= 0) (drivers @ sinks) in
          match members with
          | [] -> ()
          | first :: rest -> List.iter (fun i -> ignore (Union_find.union uf first i)) rest
        end)
      t.net_users;
    Union_find.groups uf |> List.map snd
  end
