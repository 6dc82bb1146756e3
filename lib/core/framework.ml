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

type session = {
  modules : Mlv_accel.Rtl_gen.shared;
  analyses : Decompose.session;
  costs : Mapping.cost_cache;
}

let session () =
  {
    modules = Mlv_accel.Rtl_gen.shared ();
    analyses = Decompose.session ();
    costs = Mapping.cost_cache ();
  }

let build_npu ?(iterations = 2) ?(session = session ()) ~tiles () =
  Mlv_obs.Obs.Span.with_ "build_npu" (fun () ->
      let config = Mlv_accel.Config.make ~tiles () in
      let design = Mlv_accel.Rtl_gen.generate ~shared:session.modules config in
      match
        Decompose.run ~config:decompose_config ~session:session.analyses design
          ~top:Mlv_accel.Rtl_gen.top_name
      with
      | Error e -> Error (Printf.sprintf "decompose failed: %s" e)
      | Ok decomposed ->
        let mapping =
          Mapping.compile ~cost_model:Mapping.npu_cost_model ~cost_cache:session.costs
            ~iterations ~name:(accel_name ~tiles) ~control:decomposed.Decompose.control
            ~data:decomposed.Decompose.data ()
        in
        Ok { config; design; decomposed; mapping })

let npu_registry ?(iterations = 2) ~tile_counts () =
  let registry = Mapdb.create () in
  (* One session across every instance, dropped on return: the
     tile-independent modules are generated and analysed once, and
     equal unit shapes (the engines, the converters) are priced once
     per device kind. *)
  let session = session () in
  List.iter
    (fun tiles ->
      match build_npu ~iterations ~session ~tiles () with
      | Ok npu -> Mapdb.register registry npu.mapping
      | Error e -> failwith (Printf.sprintf "npu_registry: tiles=%d: %s" tiles e))
    tile_counts;
  registry
