(* Reference oracle for [Mlv_util.Stats.percentile] and
   [percentile_many]: the versions that sorted with
   [Array.sort Float.compare], kept verbatim (error messages
   included).  [test/test_util.ml] checks the production ones against
   them on random samples. *)

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
    let arr = Array.of_list xs in
    (* Polymorphic compare silently misorders NaN (it sorts below
       every float, skewing every rank); reject it and sort with the
       float-aware comparison. *)
    Array.iter
      (fun x -> if Float.is_nan x then invalid_arg "Stats.percentile: NaN sample")
      arr;
    Array.sort Float.compare arr;
    let n = Array.length arr in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then arr.(lo)
    else begin
      let w = rank -. float_of_int lo in
      (arr.(lo) *. (1.0 -. w)) +. (arr.(hi) *. w)
    end

(* Same rank interpolation as [percentile], sorting the samples once
   for the whole list of ranks — at a million samples three separate
   [percentile] calls would mean three full sorts. *)
let percentile_many ps = function
  | [] -> invalid_arg "Stats.percentile_many: empty list"
  | xs ->
    List.iter
      (fun p ->
        if p < 0.0 || p > 100.0 then
          invalid_arg "Stats.percentile_many: p out of range")
      ps;
    let arr = Array.of_list xs in
    Array.iter
      (fun x ->
        if Float.is_nan x then invalid_arg "Stats.percentile_many: NaN sample")
      arr;
    Array.sort Float.compare arr;
    let n = Array.length arr in
    List.map
      (fun p ->
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) in
        let hi = int_of_float (ceil rank) in
        if lo = hi then arr.(lo)
        else begin
          let w = rank -. float_of_int lo in
          (arr.(lo) *. (1.0 -. w)) +. (arr.(hi) *. w)
        end)
      ps
