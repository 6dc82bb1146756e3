type piece = {
  piece_id : string;
  level : int;
  index : int;
  tree : Soft_block.t;
  cut_bits : int;
}

let take n lst =
  let rec go acc n = function
    | x :: rest when n > 0 -> go (x :: acc) (n - 1) rest
    | rest -> (List.rev acc, rest)
  in
  go [] n lst

(* Wrap a child list back into a block, avoiding singleton nodes. *)
let rewrap composition name link_bits = function
  | [ single ] -> single
  | children -> (
    match composition with
    | Soft_block.Data_parallel -> Soft_block.data_par ~name children
    | Soft_block.Pipeline -> Soft_block.pipeline ~name ?link_bits children)

let bisect tree =
  match tree with
  | Soft_block.Leaf _ -> None
  | Soft_block.Node n -> (
    match n.Soft_block.children with
    | [] | [ _ ] -> None
    | children -> (
      match n.Soft_block.composition with
      | Soft_block.Data_parallel ->
        (* Even split; replicas are interchangeable so the inter-
           cluster bandwidth is the replicas' shared I/O, modeled as
           zero extra (they do not talk to each other). *)
        let half = (List.length children + 1) / 2 in
        let left, right = take half children in
        Some
          ( rewrap Soft_block.Data_parallel (n.Soft_block.nname ^ "_a") None left,
            rewrap Soft_block.Data_parallel (n.Soft_block.nname ^ "_b") None right,
            0 )
      | Soft_block.Pipeline ->
        (* Cut at the minimum-bandwidth internal connection. *)
        let bits = Array.of_list n.Soft_block.link_bits in
        if Array.length bits = 0 then None
        else begin
          let best = ref 0 in
          Array.iteri (fun i b -> if b < bits.(!best) then best := i) bits;
          let cut = !best in
          let left, right = take (cut + 1) children in
          let lb_left, lb_right =
            let l = Array.to_list bits in
            let left_bits, rest = take cut l in
            match rest with
            | _ :: right_bits -> (left_bits, right_bits)
            | [] -> (left_bits, [])
          in
          Some
            ( rewrap Soft_block.Pipeline (n.Soft_block.nname ^ "_a") (Some lb_left) left,
              rewrap Soft_block.Pipeline (n.Soft_block.nname ^ "_b") (Some lb_right) right,
              bits.(cut) )
        end))

let run_untraced tree ~iterations =
  let level0 = [ { piece_id = "p0/0"; level = 0; index = 0; tree; cut_bits = 0 } ] in
  let next level pieces =
    List.concat_map
      (fun p ->
        match bisect p.tree with
        | None -> [ { p with piece_id = Printf.sprintf "p%d/%d" level p.index } ]
        | Some (a, b, cut) ->
          [
            { piece_id = ""; level; index = 0; tree = a; cut_bits = cut };
            { piece_id = ""; level; index = 0; tree = b; cut_bits = 0 };
          ])
      pieces
    |> List.mapi (fun i p ->
           { p with piece_id = Printf.sprintf "p%d/%d" level i; level; index = i })
  in
  let rec go level acc current =
    if level > iterations then List.rev acc
    else begin
      let nxt = next level current in
      go (level + 1) (nxt :: acc) nxt
    end
  in
  go 1 [ level0 ] level0

let run tree ~iterations =
  Mlv_obs.Obs.Span.with_ "partition" (fun () -> run_untraced tree ~iterations)
