module Stats = Mlv_util.Stats

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_string v =
    let buf = Buffer.create 1024 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.0f" f)
        else if Float.is_nan f || Float.abs f = infinity then
          Buffer.add_string buf "null"
        else Buffer.add_string buf (Printf.sprintf "%.6g" f)
      | String s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
      | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\":";
            go x)
          fields;
        Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  (* Recursive-descent parser for one complete JSON value; [None] on
     malformed input.  bench/benchdiff.ml reads committed BENCH_*.json
     artifacts back through this, so it accepts what [to_string] emits
     (and standard JSON generally).  Numbers without a fraction or
     exponent that fit in [int] parse as [Int]; everything else as
     [Float]. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let fail () = raise Exit in
    let expect c = match peek () with Some x when x = c -> advance () | _ -> fail () in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ()
    in
    (* Encode a \uXXXX escape as UTF-8 (no surrogate-pair pairing —
       our own emitter only escapes control characters). *)
    let add_code_point buf cp =
      if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
      else if cp < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xc0 lor (cp lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xe0 lor (cp lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
        Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3f)))
      end
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | None -> fail ()
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> String (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> number ()
      | Some _ -> fail ()
    and obj () =
      expect '{';
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail ()
        in
        Obj (members [])
      end
    and arr () =
      expect '[';
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail ()
        in
        List (elements [])
      end
    and string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec chars () =
        match peek () with
        | None -> fail ()
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> advance (); Buffer.add_char buf '"'; chars ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; chars ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; chars ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; chars ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; chars ()
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; chars ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; chars ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; chars ()
          | Some 'u' ->
            advance ();
            let cp = ref 0 in
            for _ = 1 to 4 do
              match peek () with
              | Some ('0' .. '9' as c) ->
                cp := (!cp * 16) + (Char.code c - Char.code '0');
                advance ()
              | Some ('a' .. 'f' as c) ->
                cp := (!cp * 16) + (Char.code c - Char.code 'a' + 10);
                advance ()
              | Some ('A' .. 'F' as c) ->
                cp := (!cp * 16) + (Char.code c - Char.code 'A' + 10);
                advance ()
              | _ -> fail ()
            done;
            add_code_point buf !cp;
            chars ()
          | _ -> fail ())
        | Some c ->
          advance ();
          Buffer.add_char buf c;
          chars ()
      in
      chars ();
      Buffer.contents buf
    and number () =
      let start = !pos in
      if peek () = Some '-' then advance ();
      let digits () =
        let saw = ref false in
        while (match peek () with Some '0' .. '9' -> true | _ -> false) do
          saw := true;
          advance ()
        done;
        if not !saw then fail ()
      in
      digits ();
      let fractional = ref false in
      if peek () = Some '.' then begin
        fractional := true;
        advance ();
        digits ()
      end;
      (match peek () with
      | Some ('e' | 'E') ->
        fractional := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ());
      let text = String.sub s start (!pos - start) in
      if !fractional then
        match float_of_string_opt text with Some f -> Float f | None -> fail ()
      else begin
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt text with Some f -> Float f | None -> fail ())
      end
    in
    match
      let v = value () in
      skip_ws ();
      if !pos = n then Some v else None
    with
    | r -> r
    | exception Exit -> None

  let is_valid s = parse s <> None
end

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)
(* ------------------------------------------------------------------ *)

module Labels = struct
  type t = (string * string) list

  let bad_char c =
    match c with '{' | '}' | '=' | ',' | '"' | '\n' -> true | _ -> false

  let check_part what s =
    if String.exists bad_char s then
      invalid_arg
        (Printf.sprintf "Obs.Labels: %s %S contains a reserved character" what s)

  let make kvs =
    List.iter
      (fun (k, v) ->
        if k = "" then invalid_arg "Obs.Labels: empty label key";
        check_part "key" k;
        check_part "value" v)
      kvs;
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) kvs in
    let rec dup = function
      | (a, _) :: ((b, _) :: _ as rest) -> if a = b then Some a else dup rest
      | _ -> None
    in
    (match dup sorted with
    | Some k -> invalid_arg (Printf.sprintf "Obs.Labels: duplicate key %S" k)
    | None -> ());
    sorted

  let render = function
    | [] -> ""
    | kvs ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
      ^ "}"

  (* Canonical series name: base plus the sorted, rendered label set,
     e.g. [sysim.task_sojourn_us{kind=XCVU37P,node=3}].  The same
     label set always renders the same key, so registry ordering (and
     every export) is deterministic. *)
  let key base kvs = base ^ render (make kvs)
end

(* ------------------------------------------------------------------ *)
(* Clocks                                                              *)
(* ------------------------------------------------------------------ *)

let wall_us () = Unix.gettimeofday () *. 1e6

let sim_clock : (unit -> float) option ref = ref None

let with_sim_clock clock f =
  let prev = !sim_clock in
  sim_clock := Some clock;
  Fun.protect ~finally:(fun () -> sim_clock := prev) f

let sim_us () = match !sim_clock with Some f -> f () | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = {
    cname : string;  (* full canonical name: base plus rendered labels *)
    cbase : string;
    clabels : Labels.t;
    mutable v : int;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let get_full ~base ~labels name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
      let c = { cname = name; cbase = base; clabels = labels; v = 0 } in
      Hashtbl.replace registry name c;
      c

  let get name = get_full ~base:name ~labels:[] name

  let get_labeled name kvs =
    let labels = Labels.make kvs in
    get_full ~base:name ~labels (name ^ Labels.render labels)

  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
  let name t = t.cname
  let base t = t.cbase
  let labels t = t.clabels
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Ten log buckets per decade: sample v > 0 lands in bucket
     round(10 * log10 v), so bucket k represents 10^(k/10).  Counts
     live in a flat array indexed by k + bucket_offset — the observe
     path is one array store, no hashtable churn, no allocation.
     k is clamped to [-300, 300] (samples from 1e-30 to 1e30); the
     clamp is invisible in practice because percentile results are
     clamped to the exactly-tracked min/max anyway. *)
  let bucket_offset = 300
  let bucket_slots = (2 * bucket_offset) + 1

  type t = {
    hname : string;  (* full canonical name: base plus rendered labels *)
    hbase : string;
    hlabels : Labels.t;
    buckets : int array;
    (* Occupied bucket range: every nonzero bucket lies in [lo, hi];
       lo > hi when none is.  [percentile] and [clear] touch only this
       range, so a narrow histogram costs a few slots, not 601. *)
    mutable lo : int;
    mutable hi : int;
    mutable zero_count : int;  (* samples <= 0 *)
    acc : Stats.Acc.t;
  }

  let make ~name ~base ~labels =
    { hname = name; hbase = base; hlabels = labels;
      buckets = Array.make bucket_slots 0; lo = bucket_slots; hi = -1;
      zero_count = 0; acc = Stats.Acc.create () }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let get_full ~base ~labels name =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
      let h = make ~name ~base ~labels in
      Hashtbl.replace registry name h;
      h

  let get name = get_full ~base:name ~labels:[] name

  let get_labeled name kvs =
    let labels = Labels.make kvs in
    get_full ~base:name ~labels (name ^ Labels.render labels)

  let detached ?(name = "detached") () = make ~name ~base:name ~labels:[]

  let observe t v =
    if Float.is_nan v || Float.abs v = infinity then
      invalid_arg "Obs.Histogram.observe: sample must be finite";
    Stats.Acc.add t.acc v;
    if v <= 0.0 then t.zero_count <- t.zero_count + 1
    else begin
      let b = int_of_float (Float.round (log10 v *. 10.0)) in
      let b =
        if b < -bucket_offset then 0
        else if b > bucket_offset then bucket_slots - 1
        else b + bucket_offset
      in
      t.buckets.(b) <- t.buckets.(b) + 1;
      if b < t.lo then t.lo <- b;
      if b > t.hi then t.hi <- b
    end

  let count t = Stats.Acc.count t.acc
  let mean t = Stats.Acc.mean t.acc
  let min t = if count t = 0 then 0.0 else Stats.Acc.min t.acc
  let max t = if count t = 0 then 0.0 else Stats.Acc.max t.acc
  let sum t = Stats.Acc.sum t.acc
  let name t = t.hname
  let base t = t.hbase
  let labels t = t.hlabels

  let percentile t p =
    (* [not (p >= 0 && p <= 100)] also rejects NaN, which the naive
       range test lets through (every comparison on NaN is false) and
       which would otherwise corrupt the target-rank arithmetic. *)
    if not (p >= 0.0 && p <= 100.0) then
      invalid_arg "Obs.Histogram.percentile: p out of range";
    let total = count t in
    if total = 0 then 0.0
    else begin
      let target =
        let r = int_of_float (ceil (p /. 100.0 *. float_of_int total)) in
        Stdlib.min total (Stdlib.max 1 r)
      in
      if t.zero_count >= target then Stdlib.min 0.0 (min t)
      else begin
        let cum = ref t.zero_count in
        let result = ref (max t) in
        (try
           for i = t.lo to t.hi do
             let c = t.buckets.(i) in
             if c > 0 then begin
               cum := !cum + c;
               if !cum >= target then begin
                 result := 10.0 ** (float_of_int (i - bucket_offset) /. 10.0);
                 raise Exit
               end
             end
           done
         with Exit -> ());
        (* The bucket midpoint can overshoot the true extremes; clamp
           to the exactly tracked range. *)
        Float.min (max t) (Float.max (min t) !result)
      end
    end

  let clear t =
    if t.lo <= t.hi then Array.fill t.buckets t.lo (t.hi - t.lo + 1) 0;
    t.lo <- bucket_slots;
    t.hi <- -1;
    t.zero_count <- 0;
    Stats.Acc.reset t.acc
end

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span_record = {
  id : int;
  parent : int option;
  name : string;
  depth : int;
  start_wall_us : float;
  wall_us : float;
  start_sim_us : float;
  sim_us : float;
  args : (string * string) list;
}

let span_capacity = 8192
let completed : span_record option array = Array.make span_capacity None
let completed_next = ref 0
let completed_total = ref 0

let record_completed r =
  completed.(!completed_next) <- Some r;
  completed_next := (!completed_next + 1) mod span_capacity;
  incr completed_total

let spans () =
  let n = Stdlib.min !completed_total span_capacity in
  let start = if !completed_total <= span_capacity then 0 else !completed_next in
  List.init n (fun i ->
      match completed.((start + i) mod span_capacity) with
      | Some r -> r
      | None -> assert false)

let contains hay needle =
  (* Character-by-character scan: the obvious [String.sub hay i nn =
     needle] allocates a fresh substring per candidate position,
     which [spans_matching]/[timeline] pay per span in the 8192-entry
     ring on every query. *)
  let nh = String.length hay and nn = String.length needle in
  let matches_at i =
    let j = ref 0 in
    while !j < nn && String.unsafe_get hay (i + !j) = String.unsafe_get needle !j do
      incr j
    done;
    !j = nn
  in
  let rec at i = i + nn <= nh && (matches_at i || at (i + 1)) in
  nn = 0 || at 0

let spans_matching sub = List.filter (fun r -> contains r.name sub) (spans ())
let dropped_spans () = Stdlib.max 0 (!completed_total - span_capacity)

module Span = struct
  type t = {
    sid : int;
    sname : string;
    parent : int option;
    depth : int;
    t0_wall_us : float;
    t0_sim_us : float;
    mutable sargs : (string * string) list;  (* reverse order *)
    mutable closed : bool;
  }

  let next_id = ref 0
  let stack : t list ref = ref []

  (* Span name -> its [span.<name>.wall_us] histogram, so an exit
     neither builds the derived name nor hashes it.  [reset] clears
     registry histograms in place and never drops them, so a memoised
     handle stays the registered one. *)
  let wall_hists : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

  let wall_hist name =
    match Hashtbl.find wall_hists name with
    | h -> h
    | exception Not_found ->
      let h = Histogram.get ("span." ^ name ^ ".wall_us") in
      Hashtbl.replace wall_hists name h;
      h

  let enter name =
    let id = !next_id in
    Stdlib.incr next_id;
    let parent, depth =
      match !stack with [] -> (None, 0) | p :: _ -> (Some p.sid, p.depth + 1)
    in
    let s =
      { sid = id; sname = name; parent; depth; t0_wall_us = wall_us ();
        t0_sim_us = sim_us (); sargs = []; closed = false }
    in
    stack := s :: !stack;
    s

  (* Attach a key=value annotation (e.g. the deployment id a [deploy]
     span produced); exported with the record and into trace args. *)
  let add_arg s k v = if not s.closed then s.sargs <- (k, v) :: s.sargs

  let exit s =
    if not s.closed then begin
      s.closed <- true;
      (* Pop to (and including) this span; children left open by an
         exception unwind close implicitly.  It is mostly on top. *)
      (match !stack with
      | top :: rest when top.sid = s.sid -> stack := rest
      | st ->
        let rec pop = function
          | [] -> []
          | top :: rest -> if top.sid = s.sid then rest else pop rest
        in
        if List.exists (fun x -> x.sid = s.sid) st then stack := pop st);
      let wall = Float.max 0.0 (wall_us () -. s.t0_wall_us) in
      let sim = Float.max 0.0 (sim_us () -. s.t0_sim_us) in
      record_completed
        { id = s.sid; parent = s.parent; name = s.sname; depth = s.depth;
          start_wall_us = s.t0_wall_us; wall_us = wall;
          start_sim_us = s.t0_sim_us; sim_us = sim; args = List.rev s.sargs };
      Histogram.observe (wall_hist s.sname) wall
    end

  (* [f x] inside the open span [s], which closes whether [f] returns
     or raises; unlike [Fun.protect], no closure is built per call. *)
  let inside s f x =
    match f x with
    | v ->
      exit s;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      exit s;
      Printexc.raise_with_backtrace e bt

  let with_ name f = inside (enter name) f ()

  let with_span name f =
    let s = enter name in
    inside s f s
end

(* ------------------------------------------------------------------ *)
(* Task-lifecycle tracing                                              *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type phase =
    | Arrive
    | Queue
    | Deploy
    | Service
    | Complete
    | Reject
    | Retry
    | Crash_interrupt
    | Mark
    | Shed

  let phases =
    [ Arrive; Queue; Deploy; Service; Complete; Reject; Retry; Crash_interrupt; Mark; Shed ]

  let phase_index = function
    | Arrive -> 0
    | Queue -> 1
    | Deploy -> 2
    | Service -> 3
    | Complete -> 4
    | Reject -> 5
    | Retry -> 6
    | Crash_interrupt -> 7
    | Mark -> 8
    | Shed -> 9

  let phase_name = function
    | Arrive -> "arrive"
    | Queue -> "queue"
    | Deploy -> "deploy"
    | Service -> "service"
    | Complete -> "complete"
    | Reject -> "reject"
    | Retry -> "retry"
    | Crash_interrupt -> "crash_interrupt"
    | Mark -> "mark"
    | Shed -> "shed"

  type event = {
    seq : int;
    phase : phase;
    task : int option;
    label : string;
    at_sim_us : float;
    node : int option;
    deployment : int option;
    retries : int;
  }

  (* Tracing is off by default: emission is a single flag test on the
     simulator hot path, so a tracing-off run pays nothing and stays
     bit-identical to a build without the tracer. *)
  let enabled_flag = ref false
  let set_enabled b = enabled_flag := b
  let enabled () = !enabled_flag

  let capacity = 65536
  let ring : event option array = Array.make capacity None
  let ring_next = ref 0
  let total = ref 0
  let counts = Array.make (List.length phases) 0

  let emit ?task ?node ?deployment ?(retries = 0) ?(label = "") phase =
    if !enabled_flag then begin
      let e =
        { seq = !total; phase; task; label; at_sim_us = sim_us (); node;
          deployment; retries }
      in
      ring.(!ring_next) <- Some e;
      ring_next := (!ring_next + 1) mod capacity;
      Stdlib.incr total;
      counts.(phase_index phase) <- counts.(phase_index phase) + 1
    end

  let task ?node ?deployment ?retries ?label phase id =
    emit ~task:id ?node ?deployment ?retries ?label phase

  let mark ?node label = emit ?node ~label Mark

  let events () =
    let n = Stdlib.min !total capacity in
    let start = if !total <= capacity then 0 else !ring_next in
    List.init n (fun i ->
        match ring.((start + i) mod capacity) with
        | Some e -> e
        | None -> assert false)

  (* Per-phase totals over the whole run, drops included: the ring may
     forget old events, the accounting never does.  This is what the
     closed-accounting checks compare against the task counters. *)
  let count phase = counts.(phase_index phase)
  let recorded () = !total
  let dropped () = Stdlib.max 0 (!total - capacity)

  let reset () =
    Array.fill ring 0 capacity None;
    ring_next := 0;
    total := 0;
    Array.fill counts 0 (Array.length counts) 0

  (* ---------------- Chrome/Perfetto export ---------------- *)

  (* Track layout: pid 1 carries the nested spans on one thread
     (wall-clock timeline, normalized to the earliest span); pid 2 has
     one thread per cluster node plus a cluster-wide thread for events
     with no node; pid 3 has one thread per deployment.  Lifecycle
     events are instants on the simulation clock; an event tagged with
     both a node and a deployment appears on both tracks. *)
  let span_pid = 1
  let node_pid = 2
  let deployment_pid = 3
  let cluster_tid = 1_000_000

  let args_json kvs =
    Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) kvs)

  let chrome_metadata ~pid ~tid ~key name =
    Json.Obj
      [
        ("name", Json.String key);
        ("ph", Json.String "M");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj [ ("name", Json.String name) ]);
      ]

  let chrome_span t0 (r : span_record) =
    Json.Obj
      [
        ("name", Json.String r.name);
        ("ph", Json.String "X");
        ("pid", Json.Int span_pid);
        ("tid", Json.Int 1);
        ("ts", Json.Float (r.start_wall_us -. t0));
        ("dur", Json.Float r.wall_us);
        ( "args",
          args_json
            (r.args
            @ [
                ("span_id", string_of_int r.id);
                ("start_sim_us", Printf.sprintf "%.3f" r.start_sim_us);
                ("sim_us", Printf.sprintf "%.3f" r.sim_us);
              ]) );
      ]

  let event_name e =
    let subject =
      match e.task with
      | Some id -> Printf.sprintf " task %d" id
      | None -> if e.label = "" then "" else " " ^ e.label
    in
    phase_name e.phase ^ subject

  let chrome_instant ~pid ~tid e =
    let args =
      (match e.task with
      | Some id -> [ ("task", string_of_int id) ]
      | None -> [])
      @ (match e.deployment with
        | Some d -> [ ("deployment", string_of_int d) ]
        | None -> [])
      @ (match e.node with Some n -> [ ("node", string_of_int n) ] | None -> [])
      @ (if e.retries > 0 then [ ("retries", string_of_int e.retries) ] else [])
      @ if e.label = "" then [] else [ ("label", e.label) ]
    in
    Json.Obj
      [
        ("name", Json.String (event_name e));
        ("ph", Json.String "i");
        ("s", Json.String "t");
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("ts", Json.Float e.at_sim_us);
        ("args", args_json args);
      ]

  let to_chrome_json () =
    let evs = events () in
    let sps = spans () in
    let t0 =
      List.fold_left
        (fun acc (r : span_record) -> Float.min acc r.start_wall_us)
        infinity sps
    in
    let t0 = if t0 = infinity then 0.0 else t0 in
    let node_tids =
      List.filter_map (fun e -> e.node) evs |> List.sort_uniq compare
    in
    let deployment_tids =
      List.filter_map (fun e -> e.deployment) evs |> List.sort_uniq compare
    in
    let needs_cluster_track = List.exists (fun e -> e.node = None) evs in
    let metadata =
      [
        chrome_metadata ~pid:span_pid ~tid:0 ~key:"process_name"
          "runtime spans (wall clock)";
        chrome_metadata ~pid:span_pid ~tid:1 ~key:"thread_name" "spans";
        chrome_metadata ~pid:node_pid ~tid:0 ~key:"process_name"
          "cluster nodes (sim clock)";
        chrome_metadata ~pid:deployment_pid ~tid:0 ~key:"process_name"
          "deployments (sim clock)";
      ]
      @ List.map
          (fun n ->
            chrome_metadata ~pid:node_pid ~tid:n ~key:"thread_name"
              (Printf.sprintf "node %d" n))
          node_tids
      @ (if needs_cluster_track then
           [
             chrome_metadata ~pid:node_pid ~tid:cluster_tid ~key:"thread_name"
               "cluster";
           ]
         else [])
      @ List.map
          (fun d ->
            chrome_metadata ~pid:deployment_pid ~tid:d ~key:"thread_name"
              (Printf.sprintf "deployment %d" d))
          deployment_tids
    in
    let span_events = List.map (chrome_span t0) sps in
    let instant_events =
      List.concat_map
        (fun e ->
          let tid = match e.node with Some n -> n | None -> cluster_tid in
          chrome_instant ~pid:node_pid ~tid e
          ::
          (match e.deployment with
          | Some d -> [ chrome_instant ~pid:deployment_pid ~tid:d e ]
          | None -> []))
        evs
    in
    Json.Obj
      [
        ("traceEvents", Json.List (metadata @ span_events @ instant_events));
        ("displayTimeUnit", Json.String "ms");
        ( "otherData",
          Json.Obj
            [
              ("tracing_enabled", Json.Bool !enabled_flag);
              ("task_events_recorded", Json.Int !total);
              ("task_events_dropped", Json.Int (dropped ()));
              ("spans_recorded", Json.Int (List.length sps));
              ("spans_dropped", Json.Int (dropped_spans ()));
              ( "phase_counts",
                Json.Obj
                  (List.map
                     (fun p -> (phase_name p, Json.Int (count p)))
                     phases) );
            ] );
      ]

  let write_chrome_json path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Json.to_string (to_chrome_json ()));
        output_char oc '\n')
end

(* ------------------------------------------------------------------ *)
(* Registry-wide views                                                 *)
(* ------------------------------------------------------------------ *)

let counters () =
  Hashtbl.fold (fun name c acc -> (name, Counter.value c) :: acc) Counter.registry []
  |> List.sort compare

(* Exposition formats need base and labels separately, not the
   rendered full name, so they get the handles. *)
let counter_handles () =
  Hashtbl.fold (fun name c acc -> (name, c) :: acc) Counter.registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histograms () =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) Histogram.registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Every series of one metric family (the base name), labeled or not,
   sorted by canonical full name — the [top]-style table views group
   on these. *)
let counters_with_base base =
  Hashtbl.fold
    (fun name (c : Counter.t) acc ->
      if Counter.base c = base then (name, Counter.labels c, Counter.value c) :: acc
      else acc)
    Counter.registry []
  |> List.sort compare

let histograms_with_base base =
  Hashtbl.fold
    (fun name h acc ->
      if Histogram.base h = base then (name, Histogram.labels h, h) :: acc else acc)
    Histogram.registry []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* Layered metric stores (e.g. the windowed time-series registry in
   series.ml) register a hook so [reset] clears them too — obs.ml
   cannot call into them directly without a dependency cycle. *)
let reset_hooks : (unit -> unit) list ref = ref []
let on_reset f = reset_hooks := f :: !reset_hooks

let reset () =
  Hashtbl.iter (fun _ (c : Counter.t) -> c.Counter.v <- 0) Counter.registry;
  Hashtbl.iter (fun _ h -> Histogram.clear h) Histogram.registry;
  Array.fill completed 0 span_capacity None;
  completed_next := 0;
  completed_total := 0;
  Span.stack := [];
  (* Span ids are exported (metrics JSON, Perfetto [span_id] args);
     without rewinding the id counter, two otherwise-identical runs
     separated by a reset export different ids, breaking bit-identity
     comparison of trace exports within one process. *)
  Span.next_id := 0;
  Trace.reset ();
  List.iter (fun f -> f ()) !reset_hooks

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)
(* ------------------------------------------------------------------ *)

let histogram_json h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("sum", Json.Float (Histogram.sum h));
      ("mean", Json.Float (Histogram.mean h));
      ("min", Json.Float (Histogram.min h));
      ("max", Json.Float (Histogram.max h));
      ("p50", Json.Float (Histogram.percentile h 50.0));
      ("p90", Json.Float (Histogram.percentile h 90.0));
      ("p99", Json.Float (Histogram.percentile h 99.0));
    ]

let span_json (r : span_record) =
  Json.Obj
    [
      ("id", Json.Int r.id);
      ("parent", match r.parent with None -> Json.Null | Some p -> Json.Int p);
      ("name", Json.String r.name);
      ("depth", Json.Int r.depth);
      ("start_wall_us", Json.Float r.start_wall_us);
      ("wall_us", Json.Float r.wall_us);
      ("start_sim_us", Json.Float r.start_sim_us);
      ("sim_us", Json.Float r.sim_us);
      ( "args",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) r.args) );
    ]

let to_json () =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (counters ())));
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, histogram_json h)) (histograms ())) );
      ("spans", Json.List (List.map span_json (spans ())));
      ("spans_dropped", Json.Int (dropped_spans ()));
    ]

let json_string () = Json.to_string (to_json ())

let write_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (json_string ());
      output_char oc '\n')

let render () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "counters:\n";
  List.iter
    (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" n v))
    (counters ());
  Buffer.add_string buf "histograms:\n";
  List.iter
    (fun (n, h) ->
      Buffer.add_string buf
        (Printf.sprintf
           "  %-40s n=%d mean=%.2f p50=%.2f p90=%.2f p99=%.2f min=%.2f max=%.2f\n" n
           (Histogram.count h) (Histogram.mean h)
           (Histogram.percentile h 50.0)
           (Histogram.percentile h 90.0)
           (Histogram.percentile h 99.0)
           (Histogram.min h) (Histogram.max h)))
    (histograms ());
  Buffer.add_string buf
    (Printf.sprintf "spans: %d recorded, %d dropped\n"
       (List.length (spans ()))
       (dropped_spans ()));
  List.iter
    (fun (r : span_record) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s%-30s wall=%.1fus sim=%.1fus\n"
           (String.make (2 * r.depth) ' ')
           r.name r.wall_us r.sim_us))
    (spans ());
  Buffer.contents buf

let pp fmt () = Format.pp_print_string fmt (render ())
