open Mlv_fpga

type composition = Data_parallel | Pipeline
type role = Control | Data

type t =
  | Leaf of leaf
  | Node of node

and leaf = {
  lname : string;
  module_name : string;
  instance_path : string;
  resources : Resource.t;
  lrole : role;
}

and node = {
  nname : string;
  composition : composition;
  children : t list;
  link_bits : int list;
  nrole : role;
}

let leaf ~name ~module_name ?(instance_path = "") ~resources ?(role = Data) () =
  Leaf { lname = name; module_name; instance_path; resources; lrole = role }

let data_par ~name ?(role = Data) children =
  if children = [] then invalid_arg "Soft_block.data_par: no children";
  Node { nname = name; composition = Data_parallel; children; link_bits = []; nrole = role }

let pipeline ~name ?(role = Data) ?link_bits children =
  if children = [] then invalid_arg "Soft_block.pipeline: no children";
  let link_bits =
    match link_bits with
    | None -> List.init (max 0 (List.length children - 1)) (fun _ -> 0)
    | Some l ->
      if List.length l <> List.length children - 1 then
        invalid_arg "Soft_block.pipeline: link_bits arity mismatch";
      l
  in
  Node { nname = name; composition = Pipeline; children; link_bits; nrole = role }

let name = function Leaf l -> l.lname | Node n -> n.nname
let role = function Leaf l -> l.lrole | Node n -> n.nrole

let rec resources = function
  | Leaf l -> l.resources
  | Node n -> List.fold_left (fun acc c -> Resource.add acc (resources c)) Resource.zero n.children

let rec leaves = function
  | Leaf l -> [ l ]
  | Node n -> List.concat_map leaves n.children

let rec size = function
  | Leaf _ -> 1
  | Node n -> 1 + List.fold_left (fun acc c -> acc + size c) 0 n.children

let rec depth = function
  | Leaf _ -> 1
  | Node n -> 1 + List.fold_left (fun acc c -> max acc (depth c)) 0 n.children

let rec count_composition t c =
  match t with
  | Leaf _ -> 0
  | Node n ->
    (if n.composition = c then 1 else 0)
    + List.fold_left (fun acc child -> acc + count_composition child c) 0 n.children

let rec equal_shape a b =
  match (a, b) with
  | Leaf la, Leaf lb -> la.module_name = lb.module_name
  | Node na, Node nb ->
    na.composition = nb.composition
    && List.length na.children = List.length nb.children
    && List.for_all2 equal_shape na.children nb.children
  | Leaf _, Node _ | Node _, Leaf _ -> false

let shape_key t =
  let buf = Buffer.create 64 in
  let rec go = function
    | Leaf l ->
      (* length prefix: module names need no escaping to stay injective *)
      Buffer.add_char buf 'L';
      Buffer.add_string buf (string_of_int (String.length l.module_name));
      Buffer.add_char buf ':';
      Buffer.add_string buf l.module_name
    | Node n ->
      Buffer.add_char buf (match n.composition with Data_parallel -> 'D' | Pipeline -> 'P');
      Buffer.add_char buf '(';
      List.iter
        (fun c ->
          go c;
          Buffer.add_char buf ',')
        n.children;
      Buffer.add_char buf ')'
  in
  go t;
  Buffer.contents buf

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let rec go = function
    | Leaf _ -> ()
    | Node n ->
      if n.children = [] then err "node %s has no children" n.nname;
      (match n.composition with
      | Pipeline ->
        if List.length n.link_bits <> List.length n.children - 1 then
          err "node %s: link_bits arity %d for %d children" n.nname
            (List.length n.link_bits) (List.length n.children)
      | Data_parallel -> (
        if n.link_bits <> [] then err "node %s: data-parallel node with link_bits" n.nname;
        match n.children with
        | [] -> ()
        | first :: rest ->
          List.iteri
            (fun i c ->
              if not (equal_shape first c) then
                err "node %s: data-parallel child %d differs in shape" n.nname (i + 1))
            rest));
      List.iter go n.children
  in
  go t;
  List.rev !errors

let pp fmt t =
  let rec go indent t =
    let pad = String.make indent ' ' in
    match t with
    | Leaf l -> Format.fprintf fmt "%s- %s [%s]@," pad l.lname l.module_name
    | Node n ->
      let comp = match n.composition with Data_parallel -> "DP" | Pipeline -> "PIPE" in
      Format.fprintf fmt "%s+ %s (%s, %d children)@," pad n.nname comp
        (List.length n.children);
      List.iter (go (indent + 2)) n.children
  in
  Format.pp_open_vbox fmt 0;
  go 0 t;
  Format.pp_close_box fmt ()

let to_dot ?(name = "soft_blocks") t =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph %s {\n  rankdir=TB;\n  node [fontname=\"sans-serif\"];\n" name;
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "n%d" !counter
  in
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  let rec go t =
    let id = fresh () in
    (match t with
    | Leaf l -> pf "  %s [shape=box, label=\"%s\\n%s\"];\n" id (escape l.lname) (escape l.module_name)
    | Node n ->
      let shape, label =
        match n.composition with
        | Data_parallel -> ("trapezium", Printf.sprintf "DP %s" n.nname)
        | Pipeline -> ("ellipse", Printf.sprintf "PIPE %s" n.nname)
      in
      pf "  %s [shape=%s, label=\"%s\"];\n" id shape (escape label);
      let child_ids = List.map go n.children in
      (match n.composition with
      | Data_parallel -> List.iter (fun c -> pf "  %s -> %s;\n" id c) child_ids
      | Pipeline ->
        List.iter (fun c -> pf "  %s -> %s [style=dashed];\n" id c) child_ids;
        let rec chain bits = function
          | a :: (b :: _ as rest) ->
            (match bits with
            | w :: more ->
              pf "  %s -> %s [label=\"%d b\", constraint=false, color=gray];\n" a b w;
              chain more rest
            | [] -> ())
          | _ -> ()
        in
        chain n.link_bits child_ids));
    id
  in
  ignore (go t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
