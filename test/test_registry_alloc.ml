(* The registry build's allocation gate, alone in its own process:
   the words a build allocates depend on what ran in the process
   before it (the same build read 3.83 M words after the other sysim
   tests and 3.70 M right after that), so the gate measures builds
   that follow nothing but each other. *)

module Sysim = Mlv_sysim.Sysim

(* Allocation of one registry build is deterministic, so a bound on it
   catches lost sharing or a return to per-block estimation without
   wall-clock noise.  The build allocates 3.70 M words since one
   compile session shares the tile-independent modules and their
   analyses across the ten instances (6.9 M before, when each instance
   regenerated and re-analysed them); estimating every leaf block
   instead of every basic module allocated 29.6 M even over the linear
   census, and 127.6 M over the old quadratic one.  A second build in
   the same process must allocate as much as the first: a cache that
   outlived a build would make it cheaper. *)
let test_registry_build_allocation () =
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let build () =
    let before = allocated () in
    ignore (Sysim.build_registry ());
    (allocated () -. before) /. 1e6
  in
  let first = build () in
  let second = build () in
  if first > 4.0 then
    Alcotest.failf "one registry build allocated %.2f M words (bound 4.0)" first;
  if Float.abs (second -. first) > 0.03 *. first then
    Alcotest.failf "a second registry build allocated %.2f M words, the first %.2f M" second
      first


let () =
  Alcotest.run "registry_alloc"
    [
      ( "sysim",
        [
          Alcotest.test_case "registry build allocation" `Quick
            test_registry_build_allocation;
        ] );
    ]
