(* Tests for the HS abstraction: virtual blocks (Table 3), the
   bin-packing compiler, bitstreams and the low-level controller. *)

module Virtual_block = Mlv_vital.Virtual_block
module Compile = Mlv_vital.Compile
module Bitstream = Mlv_vital.Bitstream
module Controller = Mlv_vital.Controller
module Device = Mlv_fpga.Device
module Resource = Mlv_fpga.Resource

(* ---------------- Virtual blocks ---------------- *)

let test_vb_counts () =
  Alcotest.(check int) "VU37P blocks" 15 (Virtual_block.count Device.XCVU37P);
  Alcotest.(check int) "KU115 blocks" 10 (Virtual_block.count Device.XCKU115)

let test_vb_regions_fit_device () =
  List.iter
    (fun kind ->
      let d = Device.get kind in
      Alcotest.(check bool) "regions fit" true
        (Resource.fits
           ~need:(Resource.scale (Virtual_block.count kind) (Virtual_block.region kind))
           ~avail:d.Device.capacity))
    Device.kinds

let test_vb_engines_per_block () =
  Alcotest.(check int) "VU37P 2/block" 2 (Virtual_block.engines_per_block Device.XCVU37P);
  Alcotest.(check int) "KU115 2/block" 2 (Virtual_block.engines_per_block Device.XCKU115)

let test_table3_report () =
  (* One virtual block's usage reproduces Table 3 within 5%. *)
  let close label expect actual =
    let rel = Float.abs (float_of_int actual -. expect) /. expect in
    Alcotest.(check bool) (Printf.sprintf "%s (%d vs %.0f)" label actual expect) true
      (rel <= 0.05)
  in
  let r = Virtual_block.implementation_report Device.XCVU37P in
  close "VU37P LUTs" 44_900.0 r.Virtual_block.used.Resource.luts;
  close "VU37P DFFs" 48_800.0 r.Virtual_block.used.Resource.dffs;
  close "VU37P BRAM" (3.9 *. 1024.0) r.Virtual_block.used.Resource.bram_kb;
  close "VU37P DSPs" 576.0 r.Virtual_block.used.Resource.dsps;
  Alcotest.(check (float 1.0)) "400 MHz" 400.0 r.Virtual_block.freq_mhz;
  Alcotest.(check bool) "peak ~3.3-3.7 TFLOPS" true
    (r.Virtual_block.peak_tflops > 3.0 && r.Virtual_block.peak_tflops < 4.0);
  let rk = Virtual_block.implementation_report Device.XCKU115 in
  close "KU115 LUTs" 39_900.0 rk.Virtual_block.used.Resource.luts;
  close "KU115 DSPs" 552.0 rk.Virtual_block.used.Resource.dsps;
  Alcotest.(check (float 1.0)) "300 MHz" 300.0 rk.Virtual_block.freq_mhz

(* ---------------- Compile ---------------- *)

let engine kind = Virtual_block.engine_mapped_resources kind

let test_compile_packs_two_per_block () =
  let units =
    [ { Compile.unit_name = "engine"; resources = engine Device.XCVU37P; replicas = 4 } ]
  in
  match Compile.compile Device.XCVU37P units with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "2 blocks for 4 engines" 2 m.Compile.vbs_used;
    Alcotest.(check int) "4 placements" 4 (List.length m.Compile.placements)

let test_compile_crossings () =
  (* A pipeline of two engine-sized units in one block: 0 crossings;
     three blocks worth: crossings appear. *)
  let unit name = { Compile.unit_name = name; resources = engine Device.XCVU37P; replicas = 1 } in
  (match Compile.compile Device.XCVU37P [ unit "a"; unit "b" ] with
  | Ok m -> Alcotest.(check int) "same block" 0 m.Compile.crossings
  | Error e -> Alcotest.fail e);
  match Compile.compile Device.XCVU37P [ unit "a"; unit "b"; unit "c"; unit "d"; unit "e" ] with
  | Ok m ->
    Alcotest.(check int) "3 blocks" 3 m.Compile.vbs_used;
    Alcotest.(check int) "2 crossings" 2 m.Compile.crossings
  | Error e -> Alcotest.fail e

let test_compile_unit_too_big () =
  let units =
    [
      {
        Compile.unit_name = "huge";
        resources = Resource.make ~luts:1_000_000 ();
        replicas = 1;
      };
    ]
  in
  match Compile.compile Device.XCVU37P units with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted oversized unit"

let test_compile_out_of_blocks () =
  let units =
    [ { Compile.unit_name = "engine"; resources = engine Device.XCKU115; replicas = 100 } ]
  in
  match Compile.compile Device.XCKU115 units with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted overflow"

let test_vbs_needed () =
  let units =
    [ { Compile.unit_name = "engine"; resources = engine Device.XCVU37P; replicas = 6 } ]
  in
  Alcotest.(check (option int)) "3 blocks" (Some 3)
    (Compile.vbs_needed Device.XCVU37P units);
  let too_many =
    [ { Compile.unit_name = "engine"; resources = engine Device.XCVU37P; replicas = 99 } ]
  in
  Alcotest.(check (option int)) "infeasible" None
    (Compile.vbs_needed Device.XCVU37P too_many)

(* ---------------- Bitstream ---------------- *)

let bs ?(vbs = 3) ?(device = Device.XCVU37P) () =
  Bitstream.make ~accel_name:"npu-t21" ~partition_id:"p1/0" ~device ~vbs ~crossings:1
    ~freq_mhz:400.0 ~tiles:11

let test_bitstream_id () =
  Alcotest.(check string) "id" "npu-t21/p1/0@XCVU37P" (Bitstream.id (bs ()))

(* ---------------- Bitstream cache ---------------- *)

let part i =
  Bitstream.make ~accel_name:"npu-t21"
    ~partition_id:(Printf.sprintf "p%d/0" i)
    ~device:Device.XCVU37P ~vbs:3 ~crossings:1 ~freq_mhz:400.0 ~tiles:11

let test_cache_hit_pricing () =
  let c = Bitstream.Cache.create ~capacity:4 () in
  Alcotest.(check (float 1e-9)) "miss pays full" 100.0
    (Bitstream.Cache.charge c (Bitstream.id (part 0)) ~base_us:100.0);
  Alcotest.(check (float 1e-9)) "hit pays the factor" 10.0
    (Bitstream.Cache.charge c (Bitstream.id (part 0)) ~base_us:100.0);
  Alcotest.(check int) "one hit" 1 (Bitstream.Cache.hits c);
  Alcotest.(check int) "one miss" 1 (Bitstream.Cache.misses c);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Bitstream.Cache.hit_rate c);
  (* the same partition on a different device kind is a different key *)
  let other =
    Bitstream.make ~accel_name:"npu-t21" ~partition_id:"p0/0"
      ~device:Device.XCKU115 ~vbs:3 ~crossings:1 ~freq_mhz:400.0 ~tiles:11
  in
  Alcotest.(check (float 1e-9)) "kind is part of the key" 100.0
    (Bitstream.Cache.charge c (Bitstream.id other) ~base_us:100.0)

let test_cache_lru_eviction () =
  let c = Bitstream.Cache.create ~capacity:2 () in
  ignore (Bitstream.Cache.charge c (Bitstream.id (part 0)) ~base_us:1.0);
  ignore (Bitstream.Cache.charge c (Bitstream.id (part 1)) ~base_us:1.0);
  (* touch p0 so p1 becomes the LRU entry *)
  ignore (Bitstream.Cache.charge c (Bitstream.id (part 0)) ~base_us:1.0);
  ignore (Bitstream.Cache.charge c (Bitstream.id (part 2)) ~base_us:1.0);
  Alcotest.(check int) "capacity held" 2 (Bitstream.Cache.length c);
  Alcotest.(check int) "one eviction" 1 (Bitstream.Cache.evictions c);
  Alcotest.(check bool) "recently-used survives" true
    (Bitstream.Cache.mem c (part 0));
  Alcotest.(check bool) "LRU evicted" false (Bitstream.Cache.mem c (part 1));
  Alcotest.(check bool) "newcomer cached" true (Bitstream.Cache.mem c (part 2))

let test_cache_validation () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Bitstream.Cache.create: capacity <= 0")
    (fun () -> ignore (Bitstream.Cache.create ~capacity:0 ()))

(* ---------------- Controller ---------------- *)

let test_controller_load_unload () =
  let c = Controller.create Device.XCVU37P in
  Alcotest.(check int) "all free" 15 (Controller.free_vbs c);
  match Controller.load c (bs ()) with
  | Error e -> Alcotest.fail e
  | Ok (h, time_us) ->
    Alcotest.(check bool) "reconfig time positive" true (time_us > 0.0);
    Alcotest.(check int) "3 used" 12 (Controller.free_vbs c);
    Alcotest.(check int) "one loaded" 1 (List.length (Controller.loaded c));
    Controller.unload c h;
    Alcotest.(check int) "freed" 15 (Controller.free_vbs c);
    Controller.unload c h;
    Alcotest.(check int) "idempotent" 15 (Controller.free_vbs c)

let test_controller_capacity () =
  let c = Controller.create Device.XCKU115 in
  (* 10 blocks: 3 loads of 3 fit, the 4th of 3 does not. *)
  let load () = Controller.load c (bs ~device:Device.XCKU115 ()) in
  (match (load (), load (), load ()) with
  | Ok _, Ok _, Ok _ -> ()
  | _ -> Alcotest.fail "first three should fit");
  match load () with
  | Error _ -> Alcotest.(check int) "1 left" 1 (Controller.free_vbs c)
  | Ok _ -> Alcotest.fail "fourth should not fit"

let test_controller_kind_mismatch () =
  let c = Controller.create Device.XCKU115 in
  match Controller.load c (bs ~device:Device.XCVU37P ()) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong device kind"

let test_controller_foreign_handle () =
  let c1 = Controller.create Device.XCVU37P in
  let c2 = Controller.create Device.XCVU37P in
  match Controller.load c1 (bs ()) with
  | Error e -> Alcotest.fail e
  | Ok (h, _) ->
    Alcotest.(check bool) "foreign rejected" true
      (try
         Controller.unload c2 h;
         false
       with Invalid_argument _ -> true)

let test_reconfig_time_scales () =
  let t1 = Controller.reconfig_time_us Device.XCVU37P ~vbs:1 in
  let t4 = Controller.reconfig_time_us Device.XCVU37P ~vbs:4 in
  Alcotest.(check bool) "scales" true (t4 > 3.0 *. t1)

(* Property: any mix of loads/unloads conserves blocks. *)
let prop_controller_conservation =
  QCheck.Test.make ~name:"controller conserves blocks" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (int_range 1 4))
    (fun sizes ->
      let c = Controller.create Device.XCVU37P in
      let handles =
        List.filter_map
          (fun vbs ->
            match Controller.load c (bs ~vbs ()) with
            | Ok (h, _) -> Some h
            | Error _ -> None)
          sizes
      in
      List.iter (Controller.unload c) handles;
      Controller.free_vbs c = 15)

(* Property: the maintained free count equals the fold over the
   occupancy after every step of a random interleaving of loads (some
   refused for lack of blocks), unloads of live handles and repeated
   unloads of released ones. *)
let prop_controller_free_count =
  QCheck.Test.make ~name:"controller free count is the fold" ~count:100
    QCheck.(
      pair (oneofl Device.kinds)
        (list_of_size (Gen.int_range 1 40) (pair bool (int_range 1 6))))
    (fun (kind, steps) ->
      let c = Controller.create kind in
      let live = ref [] and released = ref [] in
      let step (load, x) =
        if load then (
          match Controller.load c (bs ~device:kind ~vbs:x ()) with
          | Ok (h, _) -> live := h :: !live
          | Error _ -> ())
        else
          match (!live, !released) with
          | [], [] -> ()
          | [], h :: _ -> Controller.unload c h
          | l, _ ->
            let h = List.nth l (x mod List.length l) in
            Controller.unload c h;
            live := List.filter (fun h' -> h' != h) l;
            released := h :: !released
      in
      List.for_all
        (fun s ->
          step s;
          Controller.consistent c)
        steps
      &&
      (List.iter (Controller.unload c) !live;
       Controller.consistent c && Controller.free_vbs c = Controller.total_vbs c))

let test_compile_bfd_strategy () =
  (* BFD packs a mixed workload into no more blocks than pipeline
     order, and both place every replica. *)
  let units =
    [
      { Compile.unit_name = "big"; resources = engine Device.XCVU37P; replicas = 5 };
      {
        Compile.unit_name = "small";
        resources = Resource.make ~luts:5_000 ~dsps:30 ();
        replicas = 6;
      };
    ]
  in
  let run strategy =
    match Compile.compile ~strategy Device.XCVU37P units with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let po = run Compile.Pipeline_order in
  let bfd = run Compile.Best_fit_decreasing in
  Alcotest.(check int) "po places all" 11 (List.length po.Compile.placements);
  Alcotest.(check int) "bfd places all" 11 (List.length bfd.Compile.placements);
  Alcotest.(check bool) "bfd no worse on blocks" true
    (bfd.Compile.vbs_used <= po.Compile.vbs_used)

let test_compile_bfd_errors () =
  (match
     Compile.compile ~strategy:Compile.Best_fit_decreasing Device.XCVU37P
       [ { Compile.unit_name = "huge"; resources = Resource.make ~luts:1_000_000 (); replicas = 1 } ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted oversized unit");
  match
    Compile.compile ~strategy:Compile.Best_fit_decreasing Device.XCKU115
      [ { Compile.unit_name = "engine"; resources = engine Device.XCKU115; replicas = 100 } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted overflow"

(* Property: both strategies respect region capacity in every block. *)
let prop_packing_capacity =
  QCheck.Test.make ~name:"packing respects region capacity" ~count:40
    QCheck.(pair (int_range 1 12) (int_range 1 6))
    (fun (engines, smalls) ->
      let units =
        [
          { Compile.unit_name = "e"; resources = engine Device.XCVU37P; replicas = engines };
          {
            Compile.unit_name = "s";
            resources = Resource.make ~luts:9_000 ~dsps:50 ();
            replicas = smalls;
          };
        ]
      in
      let region = Virtual_block.region Device.XCVU37P in
      List.for_all
        (fun strategy ->
          match Compile.compile ~strategy Device.XCVU37P units with
          | Error _ -> true
          | Ok m ->
            Array.for_all
              (fun used -> Resource.fits ~need:used ~avail:region)
              m.Compile.per_vb_used)
        [ Compile.Pipeline_order; Compile.Best_fit_decreasing ])

let () =
  Alcotest.run "vital"
    [
      ( "virtual_block",
        [
          Alcotest.test_case "counts" `Quick test_vb_counts;
          Alcotest.test_case "regions fit device" `Quick test_vb_regions_fit_device;
          Alcotest.test_case "engines per block" `Quick test_vb_engines_per_block;
          Alcotest.test_case "Table 3 report" `Quick test_table3_report;
        ] );
      ( "compile",
        [
          Alcotest.test_case "packs two per block" `Quick test_compile_packs_two_per_block;
          Alcotest.test_case "crossings" `Quick test_compile_crossings;
          Alcotest.test_case "unit too big" `Quick test_compile_unit_too_big;
          Alcotest.test_case "out of blocks" `Quick test_compile_out_of_blocks;
          Alcotest.test_case "vbs_needed" `Quick test_vbs_needed;
          Alcotest.test_case "best-fit-decreasing" `Quick test_compile_bfd_strategy;
          Alcotest.test_case "bfd errors" `Quick test_compile_bfd_errors;
          QCheck_alcotest.to_alcotest prop_packing_capacity;
        ] );
      ( "bitstream",
        [
          Alcotest.test_case "id" `Quick test_bitstream_id;
          Alcotest.test_case "cache hit pricing" `Quick test_cache_hit_pricing;
          Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "cache validation" `Quick test_cache_validation;
        ] );
      ( "controller",
        [
          Alcotest.test_case "load/unload" `Quick test_controller_load_unload;
          Alcotest.test_case "capacity" `Quick test_controller_capacity;
          Alcotest.test_case "kind mismatch" `Quick test_controller_kind_mismatch;
          Alcotest.test_case "foreign handle" `Quick test_controller_foreign_handle;
          Alcotest.test_case "reconfig time scales" `Quick test_reconfig_time_scales;
          QCheck_alcotest.to_alcotest prop_controller_conservation;
          QCheck_alcotest.to_alcotest prop_controller_free_count;
        ] );
    ]
