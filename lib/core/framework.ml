type npu = {
  config : Mlv_accel.Config.t;
  design : Mlv_rtl.Design.t;
  decomposed : Decompose.decomposition;
  mapping : Mapping.t;
}

let decompose_config =
  {
    Decompose.default_config with
    Decompose.control_modules = Mlv_accel.Rtl_gen.control_companions;
  }

let accel_name ~tiles = Printf.sprintf "npu-t%d" tiles

let build_npu ?(iterations = 2) ?cost_cache ~tiles () =
  Mlv_obs.Obs.Span.with_ "build_npu" (fun () ->
      let config = Mlv_accel.Config.make ~tiles () in
      let design = Mlv_accel.Rtl_gen.generate config in
      match
        Decompose.run ~config:decompose_config design ~top:Mlv_accel.Rtl_gen.top_name
      with
      | Error e -> Error (Printf.sprintf "decompose failed: %s" e)
      | Ok decomposed ->
        let mapping =
          Mapping.compile ~cost_model:Mapping.npu_cost_model ?cost_cache ~iterations
            ~name:(accel_name ~tiles) ~control:decomposed.Decompose.control
            ~data:decomposed.Decompose.data ()
        in
        Ok { config; design; decomposed; mapping })

let npu_registry ?(iterations = 2) ~tile_counts () =
  let registry = Mapdb.create () in
  (* One cost cache across every instance: equal unit shapes (the
     engines, the converters) are priced once per device kind. *)
  let cost_cache = Mapping.cost_cache () in
  List.iter
    (fun tiles ->
      match build_npu ~iterations ~cost_cache ~tiles () with
      | Ok npu -> Mapdb.register registry npu.mapping
      | Error e -> failwith (Printf.sprintf "npu_registry: tiles=%d: %s" tiles e))
    tile_counts;
  registry
