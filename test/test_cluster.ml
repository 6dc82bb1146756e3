(* Tests for the cluster substrate: discrete-event engine, ring
   network and the heterogeneous cluster. *)

module Sim = Mlv_cluster.Sim
module Network = Mlv_cluster.Network
module Node = Mlv_cluster.Node
module Cluster = Mlv_cluster.Cluster
module Device = Mlv_fpga.Device
module Board = Mlv_fpga.Board
module Obs = Mlv_obs.Obs

(* ---------------- Sim ---------------- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:5.0 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:9.0 (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at last" 9.0 (Sim.now sim)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := 2 :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := 3 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !log)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let fired = ref 0.0 in
  Sim.schedule sim ~delay:2.0 (fun () ->
      Sim.schedule sim ~delay:3.0 (fun () -> fired := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "nested at 5" 5.0 !fired

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun () -> incr count)
  done;
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "five fired" 5 !count;
  Alcotest.(check int) "five pending" 5 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "all fired" 10 !count

(* Regression: with pending events strictly beyond the limit, [run
   ~until] used to stop the clock at the last processed event instead
   of advancing it to the limit, so back-to-back bounded runs drifted. *)
let test_sim_until_advances_clock () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr fired);
  Sim.schedule sim ~delay:10.0 (fun () -> incr fired);
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "one fired" 1 !fired;
  Alcotest.(check int) "one pending" 1 (Sim.pending sim);
  Alcotest.(check (float 1e-9)) "clock at limit" 5.0 (Sim.now sim);
  (* also with an empty queue *)
  let sim2 = Sim.create () in
  Sim.run ~until:3.0 sim2;
  Alcotest.(check (float 1e-9)) "empty queue clock" 3.0 (Sim.now sim2)

(* Creating a simulator binds no sim clock: inside a driver's binding
   a scratch simulator or cluster (the serving loop's preemption
   feasibility probe builds one mid-run) leaves the driver's stamps
   alone, and outside every binding sim time reads 0. *)
let test_sim_create_binds_no_clock () =
  Obs.reset ();
  let sim_now name =
    Obs.Span.with_ name (fun () -> ());
    (List.hd (Obs.spans_matching name)).Obs.start_sim_us
  in
  let sim = Sim.create () in
  Sim.schedule sim ~delay:5.0 (fun () -> ());
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "create alone binds nothing" 0.0 (sim_now "clk.unbound");
  Obs.with_sim_clock
    (fun () -> Sim.now sim)
    (fun () ->
      Alcotest.(check (float 1e-9)) "the driver's clock" 5.0 (sim_now "clk.bound");
      ignore (Sim.create ());
      ignore (Cluster.create ());
      Alcotest.(check (float 1e-9)) "a scratch simulator does not take the clock" 5.0
        (sim_now "clk.scratch"));
  Alcotest.(check (float 1e-9)) "no stale stamp after the scope" 0.0 (sim_now "clk.after")

let test_sim_negative_delay () =
  let sim = Sim.create () in
  Alcotest.(check bool) "rejected" true
    (try
       Sim.schedule sim ~delay:(-1.0) (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_sim_counts () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () -> ());
  Sim.schedule sim ~delay:2.0 (fun () -> ());
  ignore (Sim.step sim);
  Alcotest.(check int) "one processed" 1 (Sim.events_processed sim);
  Sim.run sim;
  Alcotest.(check int) "two processed" 2 (Sim.events_processed sim);
  Alcotest.(check bool) "empty step" false (Sim.step sim)

(* ---------------- Network ---------------- *)

let test_network_hops () =
  let sim = Sim.create () in
  let net = Network.create sim ~nodes:4 ~board:Board.default in
  Alcotest.(check int) "adjacent" 1 (Network.hops net ~src:0 ~dst:1);
  Alcotest.(check int) "wrap shorter" 1 (Network.hops net ~src:0 ~dst:3);
  Alcotest.(check int) "across" 2 (Network.hops net ~src:0 ~dst:2);
  Alcotest.(check int) "self" 0 (Network.hops net ~src:2 ~dst:2)

let test_network_transfer_timing () =
  let sim = Sim.create () in
  let net = Network.create sim ~nodes:4 ~board:Board.default in
  let arrived = ref (-1.0) in
  Network.transfer net ~src:0 ~dst:1 ~bytes:1024 (fun () -> arrived := Sim.now sim);
  Sim.run sim;
  let expect = Network.transfer_time_us net ~src:0 ~dst:1 ~bytes:1024 in
  Alcotest.(check (float 1e-9)) "arrival matches model" expect !arrived;
  Alcotest.(check int) "stats bytes" 1024 (Network.bytes_sent net);
  Alcotest.(check int) "stats transfers" 1 (Network.transfers net)

let test_network_added_latency () =
  let sim = Sim.create () in
  let net = Network.create sim ~nodes:4 ~board:Board.default in
  let base = Network.transfer_time_us net ~src:0 ~dst:2 ~bytes:64 in
  Network.set_added_latency_us net 0.6;
  let delayed = Network.transfer_time_us net ~src:0 ~dst:2 ~bytes:64 in
  (* two hops: the programmable delay applies per hop *)
  Alcotest.(check (float 1e-9)) "2 x 0.6" 1.2 (delayed -. base)

let test_network_bounds () =
  let sim = Sim.create () in
  let net = Network.create sim ~nodes:4 ~board:Board.default in
  Alcotest.(check bool) "src range" true
    (try
       ignore (Network.hops net ~src:4 ~dst:0);
       false
     with Invalid_argument _ -> true)


let test_network_contention () =
  (* Two transfers over the same directed segment queue; opposite
     directions do not. *)
  let sim = Sim.create () in
  let net = Network.create sim ~nodes:4 ~board:Board.default in
  let t_a = ref 0.0 and t_b = ref 0.0 in
  Network.transfer net ~src:0 ~dst:1 ~bytes:100_000 (fun () -> t_a := Sim.now sim);
  Network.transfer net ~src:0 ~dst:1 ~bytes:100_000 (fun () -> t_b := Sim.now sim);
  Sim.run sim;
  let solo = Network.transfer_time_us net ~src:0 ~dst:1 ~bytes:100_000 in
  Alcotest.(check (float 1e-9)) "first unqueued" solo !t_a;
  Alcotest.(check bool) "second queued" true (!t_b > !t_a +. solo *. 0.9);
  Alcotest.(check bool) "queueing recorded" true (Network.queueing_us net > 0.0);
  (* opposite directions: no contention *)
  let sim2 = Sim.create () in
  let net2 = Network.create sim2 ~nodes:4 ~board:Board.default in
  let u_a = ref 0.0 and u_b = ref 0.0 in
  Network.transfer net2 ~src:0 ~dst:1 ~bytes:100_000 (fun () -> u_a := Sim.now sim2);
  Network.transfer net2 ~src:1 ~dst:0 ~bytes:100_000 (fun () -> u_b := Sim.now sim2);
  Sim.run sim2;
  Alcotest.(check (float 1e-9)) "both unqueued" !u_a !u_b;
  Alcotest.(check (float 1e-9)) "no queueing" 0.0 (Network.queueing_us net2)

let test_network_disjoint_segments () =
  (* 0->1 and 2->3 use different segments: concurrent, no queueing. *)
  let sim = Sim.create () in
  let net = Network.create sim ~nodes:4 ~board:Board.default in
  let done_count = ref 0 in
  Network.transfer net ~src:0 ~dst:1 ~bytes:50_000 (fun () -> incr done_count);
  Network.transfer net ~src:2 ~dst:3 ~bytes:50_000 (fun () -> incr done_count);
  Sim.run sim;
  Alcotest.(check int) "both arrive" 2 !done_count;
  Alcotest.(check (float 1e-9)) "no queueing" 0.0 (Network.queueing_us net)

(* ---------------- Cluster ---------------- *)

let test_cluster_paper_shape () =
  let c = Cluster.create () in
  Alcotest.(check int) "4 nodes" 4 (Cluster.node_count c);
  Alcotest.(check (list int)) "3 VU37P" [ 0; 1; 2 ] (Cluster.nodes_of_kind c Device.XCVU37P);
  Alcotest.(check (list int)) "1 KU115" [ 3 ] (Cluster.nodes_of_kind c Device.XCKU115);
  (* 3 x 15 + 10 virtual blocks total *)
  Alcotest.(check int) "55 blocks free" 55 (Cluster.total_free_vbs c)

let test_cluster_custom () =
  let c = Cluster.create ~kinds:[ Device.XCKU115; Device.XCKU115 ] () in
  Alcotest.(check int) "2 nodes" 2 (Cluster.node_count c);
  Alcotest.(check int) "20 blocks" 20 (Cluster.total_free_vbs c)

let test_cluster_node_access () =
  let c = Cluster.create () in
  let n = Cluster.node c 3 in
  Alcotest.(check bool) "kind" true (Device.equal_kind n.Node.kind Device.XCKU115);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Cluster.node c 4);
       false
     with Invalid_argument _ -> true)

(* Property: transfer arrival time = model time, for random shapes. *)
let prop_transfer_consistent =
  QCheck.Test.make ~name:"transfer matches model" ~count:50
    QCheck.(triple (int_range 0 3) (int_range 0 3) (int_range 1 100000))
    (fun (src, dst, bytes) ->
      let sim = Sim.create () in
      let net = Network.create sim ~nodes:4 ~board:Board.default in
      let arrived = ref (-1.0) in
      Network.transfer net ~src ~dst ~bytes (fun () -> arrived := Sim.now sim);
      Sim.run sim;
      Float.abs (!arrived -. Network.transfer_time_us net ~src ~dst ~bytes) < 1e-9)

let () =
  Alcotest.run "cluster"
    [
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "run until advances clock" `Quick
            test_sim_until_advances_clock;
          Alcotest.test_case "create binds no sim clock" `Quick
            test_sim_create_binds_no_clock;
          Alcotest.test_case "negative delay" `Quick test_sim_negative_delay;
          Alcotest.test_case "counts" `Quick test_sim_counts;
        ] );
      ( "network",
        [
          Alcotest.test_case "hops" `Quick test_network_hops;
          Alcotest.test_case "transfer timing" `Quick test_network_transfer_timing;
          Alcotest.test_case "added latency" `Quick test_network_added_latency;
          Alcotest.test_case "bounds" `Quick test_network_bounds;
          Alcotest.test_case "segment contention" `Quick test_network_contention;
          Alcotest.test_case "disjoint segments" `Quick test_network_disjoint_segments;
          QCheck_alcotest.to_alcotest prop_transfer_consistent;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "paper shape" `Quick test_cluster_paper_shape;
          Alcotest.test_case "custom" `Quick test_cluster_custom;
          Alcotest.test_case "node access" `Quick test_cluster_node_access;
        ] );
    ]
