(* Reference oracle for [Design.prim_census]: the original
   implementation, which merges child censuses into association lists
   with [List.assoc] (quadratic in the number of primitive kinds).  The
   differential tests check the production census against it. *)

open Mlv_rtl

let prim_census t name =
  let memo : (string, (Ast.prim * int) list) Hashtbl.t = Hashtbl.create 64 in
  let merge into extra =
    List.fold_left
      (fun acc (p, n) ->
        let cur = try List.assoc p acc with Not_found -> 0 in
        (p, cur + n) :: List.remove_assoc p acc)
      into extra
  in
  let rec census name =
    match Hashtbl.find_opt memo name with
    | Some c -> c
    | None ->
      let m = Design.find_exn t name in
      let c =
        List.fold_left
          (fun acc (inst : Ast.instance) ->
            match inst.master with
            | Ast.M_prim p -> merge acc [ (p, 1) ]
            | Ast.M_module child -> merge acc (census child))
          [] m.instances
      in
      Hashtbl.add memo name c;
      c
  in
  census name |> List.sort compare
