(* The paper's results in tier-1.  Every cell of Tables 2-4, Figs.
   11-12, MLP and isolation is pinned to the bit by the runtest diff
   against [paper.expected]; this suite asserts the shape claims those
   rows support and checks the tables EXPERIMENTS.md quotes against
   the same rows ([Mlv_experiments], which [bench/main.exe] prints). *)

module Paper = Mlv_experiments.Paper
module Scenarios = Mlv_experiments.Scenarios
module Device = Mlv_fpga.Device
module Deepbench = Mlv_workload.Deepbench
module Sysim = Mlv_sysim.Sysim

let registry = lazy (Sysim.build_registry ())
let fig12_rows = lazy (Paper.fig12 ~registry:(Lazy.force registry))
let table4_rows = lazy (Paper.table4 ())
let fig11_rows = lazy (Paper.fig11 ())
let mlp_rows = lazy (Paper.mlp ())
let isolation_rows = lazy (Paper.isolation ())

let test_fig12 () =
  let rows = Lazy.force fig12_rows in
  Alcotest.(check int) "ten sets" 10 (List.length rows);
  (* the paper's shape claim, set by set *)
  List.iteri
    (fun i (r : Paper.fig12_row) ->
      Alcotest.(check bool)
        (Printf.sprintf "set %d: greedy >= restricted >= baseline" (i + 1))
        true
        (r.Paper.greedy >= r.Paper.restricted && r.Paper.restricted >= r.Paper.baseline))
    rows;
  (* The mean speedups as [bench/main.exe fig12] prints them (paper:
     2.54x and ~1.16x; the restricted gap is a known difference). *)
  let vs_base, vs_restr = Paper.fig12_mean_speedups rows in
  Alcotest.(check string) "mean speedup vs baseline" "2.56x" (Printf.sprintf "%.2fx" vs_base);
  Alcotest.(check string) "mean speedup vs restricted" "1.37x"
    (Printf.sprintf "%.2fx" vs_restr)

let test_table4 () =
  let rows = Lazy.force table4_rows in
  let lo, hi = Paper.table4_band rows in
  Alcotest.(check string) "overhead band" "3.7-8.1%"
    (Printf.sprintf "%.1f-%.1f%%" (100.0 *. lo) (100.0 *. hi));
  (* The paper's dash, and only it: LSTM h=1536 does not fit the
     XCKU115 instance. *)
  let dashes =
    List.concat_map
      (fun (p, cells) ->
        List.concat
          (List.map2
             (fun (dev : Device.t) cell ->
               if cell = None then [ Deepbench.name p ^ " " ^ dev.Device.name ] else [])
             Paper.table4_devices cells))
      rows
  in
  Alcotest.(check (list string)) "the dash" [ "LSTM h=1536 t=50 XCKU115" ] dashes;
  (* The XCKU115 is slower than the XCVU37P wherever both fit. *)
  List.iter
    (fun (p, cells) ->
      match cells with
      | [ Some vu; Some ku ] ->
        Alcotest.(check bool)
          (Deepbench.name p ^ ": XCKU115 slower, bare and virtualized")
          true
          (ku.Paper.base_us > vu.Paper.base_us && ku.Paper.vital_us > vu.Paper.vital_us)
      | _ -> ())
    rows

let test_fig11 () =
  let curves =
    List.map
      (fun (r : Paper.fig11_row) ->
        (r.Paper.curve.Paper.name, Array.of_list r.Paper.reordered))
      (Lazy.force fig11_rows)
  in
  let curve name = List.assoc name curves in
  (* The first added latency at which the transfer shows: the curve
     sits more than 0.1 µs/step above its +0.0 value. *)
  let exposed_from c =
    let rec go i =
      if i = Array.length c then infinity
      else if c.(i) -. c.(0) > 0.1 then List.nth Paper.fig11_added i
      else go (i + 1)
    in
    go 1
  in
  Alcotest.(check bool) "LSTM h=1024 flat (transfer fully hidden)" true
    (exposed_from (curve "LSTM h=1024") = infinity);
  Alcotest.(check (float 0.0)) "GRU h=1024 hidden up to 0.6us" 0.6
    (exposed_from (curve "GRU h=1024"));
  Alcotest.(check (float 0.0)) "GRU h=2560 hidden one step longer, to 0.8us" 0.8
    (exposed_from (curve "GRU h=2560"));
  Alcotest.(check bool) "GRU h=2560 has the highest base latency" true
    (List.for_all (fun (_, c) -> c.(0) <= (curve "GRU h=2560").(0)) curves)

(* Section 4.4: with the instruction buffer, co-tenants barely slow a
   model down; without it they contend for DRAM. *)
let test_isolation () =
  let slowdown buffered =
    let r =
      List.find (fun r -> r.Paper.instr_buffer = buffered) (Lazy.force isolation_rows)
    in
    r.Paper.four_us /. r.Paper.solo_us
  in
  Alcotest.(check bool)
    (Printf.sprintf "buffered 4-tenant slowdown %.2fx < unbuffered %.2fx" (slowdown true)
       (slowdown false))
    true
    (slowdown true < slowdown false)

(* The capacity crossover: the two networks whose weights overflow one
   device run faster on 2 FPGAs, reordered, than on 1. *)
let test_mlp () =
  List.iter
    (fun (r : Paper.mlp_row) ->
      if List.mem r.Paper.dims [ [ 2048; 4096; 4096; 2048 ]; [ 4096; 4096; 4096; 4096 ] ]
      then
        Alcotest.(check bool)
          (Printf.sprintf "%s: 2 FPGAs %.2f < 1 FPGA %.2f us/sample"
             (String.concat "-" (List.map string_of_int r.Paper.dims))
             r.Paper.two_reordered_us r.Paper.single_us)
          true
          (r.Paper.two_reordered_us < r.Paper.single_us))
    (Lazy.force mlp_rows)

(* ---------------- EXPERIMENTS.md follows the code ---------------- *)

let doc_lines =
  lazy
    (String.split_on_char '\n'
       (In_channel.with_open_bin "../EXPERIMENTS.md" In_channel.input_all))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The first table under the section whose heading starts with
   [heading]: its header cells and its rows' cells. *)
let doc_table heading =
  (* "| a | b |" splits into "", " a ", " b ", "". *)
  let cells line =
    let parts = String.split_on_char '|' line in
    let last = List.length parts - 1 in
    List.map String.trim (List.filteri (fun i _ -> i > 0 && i < last) parts)
  in
  let is_row l = String.starts_with ~prefix:"|" l in
  let rec section = function
    | [] -> Alcotest.failf "EXPERIMENTS.md has no section %S" heading
    | l :: rest -> if String.starts_with ~prefix:heading l then rest else section rest
  in
  let rec table = function
    | l :: _ when String.starts_with ~prefix:"## " l -> []
    | l :: rest when is_row l ->
      let rec take acc = function
        | l :: rest when is_row l -> take (l :: acc) rest
        | _ -> List.rev acc
      in
      take [ l ] rest
    | _ :: rest -> table rest
    | [] -> []
  in
  match table (section (Lazy.force doc_lines)) with
  | header :: _rule :: rows -> (cells header, List.map cells rows)
  | _ -> Alcotest.failf "EXPERIMENTS.md %S: no table" heading

(* The decimal numbers in a cell as printed: "5.24→5.58 ms, 6.4%
   (7.8%)" gives ["5.24"; "5.58"; "6.4"; "7.8"]. *)
let numbers cell =
  let n = String.length cell in
  let digit i = i < n && cell.[i] >= '0' && cell.[i] <= '9' in
  let rec go i acc =
    if i >= n then List.rev acc
    else if digit i then begin
      let j = ref i in
      while digit !j || (!j < n && cell.[!j] = '.' && digit (!j + 1)) do
        incr j
      done;
      go !j (String.sub cell i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* A number the doc prints must be the code's value at the doc's
   precision. *)
let check_number what doc v =
  let decimals =
    match String.index_opt doc '.' with None -> 0 | Some i -> String.length doc - i - 1
  in
  Alcotest.(check string) ("EXPERIMENTS.md " ^ what) doc (Printf.sprintf "%.*f" decimals v)

let check_cell what cell vs =
  let docs = numbers cell in
  if List.length docs < List.length vs then
    Alcotest.failf "EXPERIMENTS.md %s: %S has fewer than %d numbers" what cell
      (List.length vs);
  List.iteri (fun i v -> check_number what (List.nth docs i) v) vs

let check_rows what want rows =
  if List.length rows <> want then
    Alcotest.failf "EXPERIMENTS.md %s: %d rows, the code has %d" what (List.length rows) want

(* The first number on the doc line that contains [marker]. *)
let check_line what marker v =
  match List.find_opt (fun l -> contains l marker) (Lazy.force doc_lines) with
  | Some l -> check_cell what l [ v ]
  | None -> Alcotest.failf "EXPERIMENTS.md has no line with %S" marker

let doc_fig12 () =
  let rows = Lazy.force fig12_rows in
  let _, doc = doc_table "## Fig. 12" in
  check_rows "Fig. 12" (List.length rows) doc;
  List.iter2
    (fun cells (r : Paper.fig12_row) ->
      match cells with
      | [ set; _; base; restr; greedy; vs_base; vs_restr ] ->
        let what col = Printf.sprintf "Fig. 12 set %s %s" set col in
        check_cell (what "baseline") base [ r.Paper.baseline ];
        check_cell (what "restricted") restr [ r.Paper.restricted ];
        check_cell (what "this work") greedy [ r.Paper.greedy ];
        check_cell (what "vs base") vs_base [ r.Paper.greedy /. r.Paper.baseline ];
        check_cell (what "vs restr") vs_restr [ r.Paper.greedy /. r.Paper.restricted ]
      | _ -> Alcotest.fail "EXPERIMENTS.md Fig. 12: a row without 7 cells")
    doc rows;
  let vs_base, vs_restr = Paper.fig12_mean_speedups rows in
  check_line "Fig. 12 mean vs baseline" "Mean speedup vs the AS-ISA-only baseline:" vs_base;
  check_line "Fig. 12 mean vs restricted" "Mean gain over the same-type-restricted policy:"
    vs_restr

let doc_table4 () =
  let rows = Lazy.force table4_rows in
  let _, doc = doc_table "## Table 4" in
  check_rows "Table 4" (List.length rows) doc;
  List.iter2
    (fun cells (p, code) ->
      match cells with
      | name :: devices when List.length devices = List.length code ->
        Alcotest.(check string) "EXPERIMENTS.md Table 4 point" (Deepbench.name p) name;
        List.iter2
          (fun cell c ->
            let what = "Table 4 " ^ name in
            match c with
            | None -> Alcotest.(check (list string)) (what ^ ": the dash") [] (numbers cell)
            | Some c ->
              let unit = if contains cell " ms" then 1000.0 else 1.0 in
              check_cell what cell
                [
                  c.Paper.base_us /. unit;
                  c.Paper.vital_us /. unit;
                  100.0 *. Paper.overhead c;
                ])
          devices code
      | _ -> Alcotest.fail "EXPERIMENTS.md Table 4: a row without one cell per device")
    doc rows

let doc_fig11 () =
  let header, doc = doc_table "## Fig. 11" in
  let rows = Lazy.force fig11_rows in
  check_rows "Fig. 11" (List.length rows) doc;
  List.iter2
    (fun cells (r : Paper.fig11_row) ->
      if List.length cells <> List.length header then
        Alcotest.fail "EXPERIMENTS.md Fig. 11: a row without one cell per column";
      Alcotest.(check string) "EXPERIMENTS.md Fig. 11 curve" r.Paper.curve.Paper.name
        (List.hd cells);
      List.iter2
        (fun col cell ->
          if String.starts_with ~prefix:"+" col then begin
            let added = float_of_string col in
            let v =
              List.assoc added (List.combine Paper.fig11_added r.Paper.reordered)
            in
            check_cell (Printf.sprintf "Fig. 11 %s %s" r.Paper.curve.Paper.name col) cell [ v ]
          end)
        header cells)
    doc rows

let doc_mlp () =
  let rows = Lazy.force mlp_rows in
  let _, doc = doc_table "## Extension: MLP/GEMV serving" in
  check_rows "MLP" (List.length rows) doc;
  List.iter2
    (fun cells (r : Paper.mlp_row) ->
      let name = String.concat "-" (List.map string_of_int r.Paper.dims) in
      match cells with
      | [ net; params; one; two; in_order ] ->
        Alcotest.(check string) "EXPERIMENTS.md MLP network" name net;
        let what col = Printf.sprintf "MLP %s %s" name col in
        check_cell (what "params") params [ float_of_int r.Paper.weight_words /. 1e6 ];
        check_cell (what "1 FPGA") one [ r.Paper.single_us ];
        check_cell (what "2 FPGAs reordered") two [ r.Paper.two_reordered_us ];
        check_cell (what "2 FPGAs in-order") in_order [ r.Paper.two_in_order_us ]
      | _ -> Alcotest.fail "EXPERIMENTS.md MLP: a row without 5 cells")
    doc rows

let doc_isolation () =
  let rows = Lazy.force isolation_rows in
  let _, doc = doc_table "## Performance isolation" in
  check_rows "isolation" (List.length rows) doc;
  List.iter2
    (fun cells (r : Paper.isolation_row) ->
      match cells with
      | [ mode; solo; four; slowdown ] ->
        Alcotest.(check bool) "EXPERIMENTS.md isolation row order" r.Paper.instr_buffer
          (String.starts_with ~prefix:"enabled" mode);
        let what col = Printf.sprintf "isolation %s %s" mode col in
        check_cell (what "solo") solo [ r.Paper.solo_us ];
        check_cell (what "4 co-tenants") four [ r.Paper.four_us ];
        check_cell (what "slowdown") slowdown [ r.Paper.four_us /. r.Paper.solo_us ]
      | _ -> Alcotest.fail "EXPERIMENTS.md isolation: a row without 4 cells")
    doc rows

let doc_sched () =
  let registry = Lazy.force registry and tasks = Scenarios.sched_tasks in
  let deadline_us, rows = Scenarios.sched_rows ~registry ~tasks in
  let rows = List.map snd rows @ [ Scenarios.sched_starved ~registry ~tasks ~deadline_us ] in
  let _, doc = doc_table "## Elastic serving" in
  check_rows "elastic serving" (List.length rows) doc;
  List.iter2
    (fun cells (r : Sysim.result) ->
      match cells with
      | [ mode; done_; shed; miss; p50; p99; tput; goodput; up_down ] ->
        let what col = Printf.sprintf "elastic serving %s %s" mode col in
        let int = float_of_int in
        check_cell (what "done") done_ [ int r.Sysim.completed ];
        check_cell (what "shed") shed [ int r.Sysim.shed ];
        check_cell (what "SLO miss") miss [ int r.Sysim.slo_misses ];
        check_cell (what "p50 ms") p50 [ r.Sysim.p50_latency_us /. 1000.0 ];
        check_cell (what "p99 ms") p99 [ r.Sysim.p99_latency_us /. 1000.0 ];
        check_cell (what "t/s") tput [ r.Sysim.throughput_per_s ];
        check_cell (what "goodput/s") goodput [ r.Sysim.goodput_per_s ];
        check_cell (what "up/down") up_down [ int r.Sysim.scale_ups; int r.Sysim.scale_downs ]
      | _ -> Alcotest.fail "EXPERIMENTS.md elastic serving: a row without 9 cells")
    doc rows

let test_experiments_md () =
  doc_fig12 ();
  doc_table4 ();
  doc_fig11 ();
  doc_mlp ();
  doc_isolation ();
  doc_sched ()

let () =
  Alcotest.run "paper"
    [
      ("fig12", [ Alcotest.test_case "golden" `Quick test_fig12 ]);
      ("table4", [ Alcotest.test_case "golden" `Quick test_table4 ]);
      ("fig11", [ Alcotest.test_case "golden" `Quick test_fig11 ]);
      ( "isolation",
        [ Alcotest.test_case "buffer keeps co-tenants cheap" `Quick test_isolation ] );
      ("mlp", [ Alcotest.test_case "scale-out past one device" `Quick test_mlp ]);
      ( "EXPERIMENTS.md",
        [ Alcotest.test_case "tables follow the code" `Quick test_experiments_md ] );
    ]
