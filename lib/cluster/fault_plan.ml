module Obs = Mlv_obs.Obs

type action =
  | Crash of int
  | Restore of int
  | Degrade of float

type event = { at : float; action : action }
type t = event list (* sorted by [at], stable *)

let check e =
  if not (Float.is_finite e.at) || e.at < 0.0 then
    invalid_arg (Printf.sprintf "Fault_plan: event time %g out of range" e.at);
  match e.action with
  | Crash n | Restore n ->
    if n < 0 then invalid_arg (Printf.sprintf "Fault_plan: negative node %d" n)
  | Degrade us ->
    if not (Float.is_finite us) || us < 0.0 then
      invalid_arg (Printf.sprintf "Fault_plan: degrade latency %g out of range" us)

let make events =
  List.iter check events;
  List.stable_sort (fun a b -> Float.compare a.at b.at) events

let empty = []
let events t = t
let is_empty t = t = []
let length = List.length

let to_string t =
  String.concat ","
    (List.map
       (fun e ->
         match e.action with
         | Crash n -> Printf.sprintf "crash@%g:%d" e.at n
         | Restore n -> Printf.sprintf "restore@%g:%d" e.at n
         | Degrade us -> Printf.sprintf "degrade@%g:%g" e.at us)
       t)

let parse_event s =
  match String.index_opt s '@' with
  | None -> Error (Printf.sprintf "%S: expected <action>@<time>:<arg>" s)
  | Some i -> (
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.index_opt rest ':' with
    | None -> Error (Printf.sprintf "%S: expected <action>@<time>:<arg>" s)
    | Some j -> (
      let time = String.sub rest 0 j in
      let arg = String.sub rest (j + 1) (String.length rest - j - 1) in
      match float_of_string_opt time with
      | None -> Error (Printf.sprintf "%S: bad time %S" s time)
      | Some at when (not (Float.is_finite at)) || at < 0.0 ->
        Error (Printf.sprintf "%S: bad time %S" s time)
      | Some at -> (
        let node () =
          match int_of_string_opt arg with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "%S: bad node %S" s arg)
        in
        match kind with
        | "crash" -> Result.map (fun n -> { at; action = Crash n }) (node ())
        | "restore" -> Result.map (fun n -> { at; action = Restore n }) (node ())
        | "degrade" -> (
          match float_of_string_opt arg with
          | Some us when Float.is_finite us && us >= 0.0 ->
            Ok { at; action = Degrade us }
          | _ -> Error (Printf.sprintf "%S: bad latency %S" s arg))
        | k -> Error (Printf.sprintf "%S: unknown action %S" s k))))

let of_string s =
  let parts =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rec go acc = function
    | [] -> Ok (make (List.rev acc))
    | p :: rest -> (
      match parse_event p with
      | Ok e -> go (e :: acc) rest
      | Error _ as err -> err)
  in
  go [] parts

let validate t ~nodes =
  let rec go = function
    | [] -> Ok ()
    | { action = Crash n | Restore n; at } :: _ when n >= nodes ->
      Error
        (Printf.sprintf "fault plan targets node %d (cluster has %d) at t=%g" n
           nodes at)
    | _ :: rest -> go rest
  in
  go t

let schedule t sim ~on_crash ~on_restore ~on_degrade =
  List.iter
    (fun e ->
      Sim.schedule_at sim ~at:e.at (fun () ->
          match e.action with
          | Crash n ->
            Obs.Counter.incr (Obs.Counter.get "fault.crash");
            Obs.Trace.mark ~node:n "fault.crash";
            on_crash n
          | Restore n ->
            Obs.Counter.incr (Obs.Counter.get "fault.restore");
            Obs.Trace.mark ~node:n "fault.restore";
            on_restore n
          | Degrade us ->
            Obs.Counter.incr (Obs.Counter.get "fault.degrade");
            Obs.Trace.mark (Printf.sprintf "fault.degrade +%gus" us);
            on_degrade us))
    t

let outages t ~until =
  (* Replay node up/down states over the (sorted) plan. *)
  let down = Hashtbl.create 4 in
  let windows = ref [] in
  let open_since = ref None in
  List.iter
    (fun e ->
      if e.at <= until then begin
        match e.action with
        | Crash n ->
          if not (Hashtbl.mem down n) then begin
            if Hashtbl.length down = 0 then open_since := Some e.at;
            Hashtbl.replace down n ()
          end
        | Restore n ->
          if Hashtbl.mem down n then begin
            Hashtbl.remove down n;
            if Hashtbl.length down = 0 then begin
              (match !open_since with
              | Some t0 -> windows := (t0, e.at) :: !windows
              | None -> ());
              open_since := None
            end
          end
        | Degrade _ -> ()
      end)
    t;
  (match !open_since with
  | Some t0 -> windows := (t0, until) :: !windows
  | None -> ());
  List.rev !windows

(* Summed most recent window first: the system simulation's pinned
   downtimes depend on this float summation order. *)
let downtime_us t ~until =
  List.fold_left (fun acc (t0, t1) -> acc +. (t1 -. t0)) 0.0 (List.rev (outages t ~until))
