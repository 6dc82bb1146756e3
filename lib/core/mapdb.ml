open Mlv_fpga
module Bitstream = Mlv_vital.Bitstream

type piece_plan = {
  piece : Mapping.compiled_piece;
  options : (Device.kind * Bitstream.t) list;
  options_by_kind : (Device.kind * (Device.kind * Bitstream.t) list) list;
  cache_keys : (Bitstream.t * string) list;
}

type level_plan = { piece_count : int; pieces : piece_plan list }

type need = { need_vbs : int; need_pieces : int }

type plan = {
  mapping : Mapping.t;
  fewest_first : level_plan list;
  most_first : level_plan list;
  single_fewest : level_plan list;
  single_most : level_plan list;
  need_any : need;
  need_single : need;
}

let plan_piece (p : Mapping.compiled_piece) =
  let options = p.Mapping.bitstreams in
  {
    piece = p;
    options;
    options_by_kind =
      List.map
        (fun kind ->
          (kind, List.filter (fun (k, _) -> Device.equal_kind k kind) options))
        Device.kinds;
    cache_keys = List.map (fun (_, bs) -> (bs, Bitstream.id bs)) options;
  }

let plan_level pieces =
  (* Allocation order: biggest pieces first (stable on ties), the
     order the allocator used to re-derive per request. *)
  let sorted =
    List.sort
      (fun (a : Mapping.compiled_piece) b -> compare b.Mapping.tiles a.Mapping.tiles)
      pieces
  in
  { piece_count = List.length pieces; pieces = List.map plan_piece sorted }

(* The least any of [levels] needs: per level, the sum over its
   pieces of their smallest option's blocks, and its piece count.  A
   level with a piece that has no option can never be placed and
   needs [max_int]. *)
let least_need levels =
  let piece_blocks pp =
    List.fold_left (fun acc (_, (bs : Bitstream.t)) -> min acc bs.Bitstream.vbs) max_int
      pp.options
  in
  let level_blocks lp =
    List.fold_left
      (fun acc pp ->
        let b = piece_blocks pp in
        if acc = max_int || b = max_int then max_int else acc + b)
      0 lp.pieces
  in
  List.fold_left
    (fun need lp ->
      let blocks = level_blocks lp in
      if blocks = max_int then need
      else
        {
          need_vbs = min need.need_vbs blocks;
          need_pieces = min need.need_pieces lp.piece_count;
        })
    { need_vbs = max_int; need_pieces = max_int }
    levels

let make_plan (m : Mapping.t) =
  let fewest_first = List.map plan_level (Mapping.levels_fewest_first m) in
  let single_fewest = List.filter (fun lp -> lp.piece_count = 1) fewest_first in
  {
    mapping = m;
    fewest_first;
    most_first = List.rev fewest_first;
    single_fewest;
    single_most = List.rev single_fewest;
    need_any = least_need fewest_first;
    need_single = least_need single_fewest;
  }

let levels plan ~fewest_first ~whole_device =
  match (fewest_first, whole_device) with
  | true, false -> plan.fewest_first
  | false, false -> plan.most_first
  | true, true -> plan.single_fewest
  | false, true -> plan.single_most

let need plan ~whole_device = if whole_device then plan.need_single else plan.need_any

let cache_key pp bs = List.assq bs pp.cache_keys

let options pp ~kind =
  match kind with
  | None -> pp.options
  | Some k -> ( match List.assoc_opt k pp.options_by_kind with Some l -> l | None -> [])

(* Canonical cache key for a compiled plan: the shape keys of the
   control and data trees ({!Soft_block.shape_key} is injective up to
   [equal_shape]) plus the level count.  Two plans compiled from
   shape-equal trees under the same partitioning depth produce the
   same placements, so a front-door cache keyed by this signature can
   reuse one plan's compilation for the other. *)
let shape_signature plan =
  Printf.sprintf "l%d;%s;%s"
    (List.length plan.fewest_first)
    (Soft_block.shape_key plan.mapping.Mapping.control)
    (Soft_block.shape_key plan.mapping.Mapping.data)

(* Keyed by accelerator name; [String.hash] is [Hashtbl.hash], so the
   table is laid out as a polymorphic one would be, but a lookup
   compares names with [String.equal]. *)
module Names = Hashtbl.Make (String)

type t = plan Names.t

let create () : t = Names.create 16
let register t (m : Mapping.t) = Names.replace t m.Mapping.accel_name (make_plan m)
let remove t name = Names.remove t name
let find t name = Names.find_opt t name

let names t =
  Names.fold (fun name _ acc -> name :: acc) t [] |> List.sort compare
