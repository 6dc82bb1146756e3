type t = {
  title : string option;
  headers : string list;
  ncols : int;
  mutable rows : string list list; (* reversed *)
}

let create ?title headers = { title; headers; ncols = List.length headers; rows = [] }

let add_row t cells =
  if List.length cells <> t.ncols then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- cells :: t.rows

(* The first column is left-aligned, the others right-aligned. *)
let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s
  end

let render t =
  let rows = List.rev t.rows in
  let widths = Array.make t.ncols 0 in
  let measure cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  measure t.headers;
  List.iter measure rows;
  let buf = Buffer.create 256 in
  let hline () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad ~left:(i = 0) widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
    Buffer.add_string buf title;
    Buffer.add_char buf '\n'
  | None -> ());
  hline ();
  emit t.headers;
  hline ();
  List.iter emit rows;
  hline ();
  Buffer.contents buf

let print t = print_string (render t)

let fmt_float ?(digits = 4) x =
  let s = Printf.sprintf "%.*f" digits x in
  (* Trim trailing zeros but keep at least one decimal. *)
  let rec trim i = if i > 0 && s.[i] = '0' && s.[i - 1] <> '.' then trim (i - 1) else i in
  if String.contains s '.' then String.sub s 0 (trim (String.length s - 1) + 1) else s

let fmt_pct x = Printf.sprintf "%.1f%%" (x *. 100.0)
