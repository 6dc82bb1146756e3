open Mlv_fpga
module Compile = Mlv_vital.Compile
module Bitstream = Mlv_vital.Bitstream
module Virtual_block = Mlv_vital.Virtual_block

type cost_model = unit_tree:Soft_block.t -> Device.kind -> Resource.t

let scale_to_device kind r =
  let d = Device.get kind in
  {
    r with
    Resource.luts =
      int_of_float (Float.round (d.Device.lut_factor *. float_of_int r.Resource.luts));
    Resource.dffs =
      int_of_float (Float.round (d.Device.dff_factor *. float_of_int r.Resource.dffs));
  }

let estimate_cost_model ~unit_tree kind =
  scale_to_device kind (Soft_block.resources unit_tree)

let is_engine_unit tree =
  List.exists (fun (l : Soft_block.leaf) -> l.Soft_block.module_name = "accum")
    (Soft_block.leaves tree)

let npu_cost_model ~unit_tree kind =
  if is_engine_unit unit_tree then Virtual_block.engine_mapped_resources kind
  else estimate_cost_model ~unit_tree kind

(* One table per cost model, told apart by physical identity: the key
   says nothing of the model, so two models never share a table. *)
type cost_cache = {
  mutable tables : (cost_model * (string * Resource.t * Device.kind, Resource.t) Hashtbl.t) list;
}

let cost_cache () = { tables = [] }

let prices cache cost_model =
  match List.find_opt (fun (m, _) -> m == cost_model) cache.tables with
  | Some (_, t) -> t
  | None ->
    let t = Hashtbl.create 64 in
    cache.tables <- (cost_model, t) :: cache.tables;
    t

type compiled_piece = {
  piece : Partition.piece;
  includes_control : bool;
  tiles : int;
  bitstreams : (Device.kind * Bitstream.t) list;
}

type t = {
  accel_name : string;
  control : Soft_block.t;
  data : Soft_block.t;
  levels : compiled_piece list list;
}

(* Placeable units of a piece: data-parallel children are the
   replicas; pipelines flatten. *)
let rec units_of tree =
  match tree with
  | Soft_block.Leaf _ -> [ tree ]
  | Soft_block.Node { Soft_block.composition = Soft_block.Data_parallel; children; _ } ->
    children
  | Soft_block.Node { Soft_block.composition = Soft_block.Pipeline; children; _ } ->
    List.concat_map units_of children

(* Group equal-shape units into replica groups, first-occurrence
   order.  One O(units²) pass per piece, shared by the requirement
   builder and the tile counter (they used to run it separately). *)
let replica_groups units =
  let rec group = function
    | [] -> []
    | u :: rest ->
      let same, others = List.partition (Soft_block.equal_shape u) rest in
      (u, 1 + List.length same) :: group others
  in
  group units

(* The control block is larger than one virtual-block region (its
   DSP-heavy MFU front-end); ViTAL maps it across three regions. *)
let control_splits = 3

let control_unit_reqs kind =
  let total = Mlv_accel.Resource_model.fixed_resources (Device.get kind) in
  let share = Resource.scale_f (1.0 /. float_of_int control_splits) total in
  List.init control_splits (fun i ->
      { Compile.unit_name = Printf.sprintf "control/%d" i; resources = share; replicas = 1 })

let tiles_of_groups groups =
  List.fold_left
    (fun acc (u, n) -> if n > 1 || is_engine_unit u then acc + n else acc)
    0 groups

let compile_untraced ~cost_model ~cache ~iterations ~name ~control ~data () =
  let cache = prices (match cache with Some c -> c | None -> cost_cache ()) cost_model in
  let levels = Partition.run data ~iterations in
  let compiled_levels =
    List.map
      (fun pieces ->
        List.mapi
          (fun idx (piece : Partition.piece) ->
            let includes_control = idx = 0 in
            let groups = replica_groups (units_of piece.Partition.tree) in
            let tiles = tiles_of_groups groups in
            (* Shape key and summed resources identify a group for
               cost memoization (the built-in cost models are pure
               functions of shape, summed annotation and device
               kind); computed once per group, not per device. *)
            let keyed_groups =
              List.map
                (fun (u, n) ->
                  (u, n, Soft_block.shape_key u, Soft_block.resources u))
                groups
            in
            let priced ~unit_tree ~skey ~res kind =
              let key = (skey, res, kind) in
              match Hashtbl.find_opt cache key with
              | Some r -> r
              | None ->
                let r = cost_model ~unit_tree kind in
                Hashtbl.add cache key r;
                r
            in
            let bitstreams =
              List.filter_map
                (fun kind ->
                  let reqs =
                    (if includes_control then control_unit_reqs kind else [])
                    @ List.map
                        (fun (u, n, skey, res) ->
                          {
                            Compile.unit_name = Soft_block.name u;
                            resources = priced ~unit_tree:u ~skey ~res kind;
                            replicas = n;
                          })
                        keyed_groups
                  in
                  match Compile.compile kind reqs with
                  | Error _ -> None
                  | Ok m ->
                    Some
                      ( kind,
                        Bitstream.make ~accel_name:name
                          ~partition_id:piece.Partition.piece_id ~device:kind
                          ~vbs:m.Compile.vbs_used ~crossings:m.Compile.crossings
                          ~freq_mhz:m.Compile.freq_mhz ~tiles ))
                Device.kinds
            in
            { piece; includes_control; tiles; bitstreams })
          pieces)
      levels
  in
  { accel_name = name; control; data; levels = compiled_levels }

let compile ?(cost_model = estimate_cost_model) ?cost_cache:cache ?(iterations = 2)
    ~name ~control ~data () =
  Mlv_obs.Obs.Span.with_ "mapping.compile" (fun () ->
      compile_untraced ~cost_model ~cache ~iterations ~name ~control ~data ())

let levels_fewest_first t =
  List.sort (fun a b -> compare (List.length a) (List.length b)) t.levels

