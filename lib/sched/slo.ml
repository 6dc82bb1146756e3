type class_spec = {
  class_name : string;
  priority : int;
  deadline_us : float;
  rate_per_s : float;
  burst : int;
}

let class_spec ?(priority = 0) ?(deadline_us = 50_000.0) ?(rate_per_s = 1000.0)
    ?(burst = 32) name =
  if rate_per_s <= 0.0 then invalid_arg "Slo.class_spec: rate must be positive";
  if burst <= 0 then invalid_arg "Slo.class_spec: burst must be positive";
  if deadline_us <= 0.0 then invalid_arg "Slo.class_spec: deadline must be positive";
  { class_name = name; priority; deadline_us; rate_per_s; burst }

type bucket = {
  spec : class_spec;
  mutable tokens : float;
  mutable refilled_us : float;
  mutable b_admitted : int;
  mutable b_shed : int;
}

type tenant_spec = { tenant_name : string; tenant_weight : float }

let tenant_spec ?(weight = 1.0) name =
  if weight <= 0.0 then invalid_arg "Slo.tenant_spec: weight must be positive";
  { tenant_name = name; tenant_weight = weight }

(* A tenant's weighted fair share of the admission pool: its bucket
   refills at [weight / sum weights] of the pool rate, so a bursty
   tenant saturates its own bucket and is shed at the gate without
   touching its neighbours' shares. *)
type tbucket = {
  t_rate_per_s : float;
  t_burst : float;
  mutable t_tokens : float;
  mutable t_refilled_us : float;
}

type t = {
  buckets : (string * bucket) list;  (* declaration order *)
  mutable threshold : int;  (* shed classes with priority < threshold *)
  mutable t_admitted : int;
  mutable t_shed : int;
  mutable t_unknown_admitted : int;
      (* admissions with no matching bucket: tracked separately so the
         per-class identity
         sum admitted_of + sum shed_of + unknown_admitted
           = admitted + shed
         holds exactly instead of silently leaking unknown classes
         into the admitted total *)
  mutable tenant_buckets : (string * tbucket) list;  (* declaration order *)
}

let create specs =
  let buckets =
    List.map
      (fun spec ->
        ( spec.class_name,
          {
            spec;
            tokens = float_of_int spec.burst;
            refilled_us = 0.0;
            b_admitted = 0;
            b_shed = 0;
          } ))
      specs
  in
  let names = List.map fst buckets in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Slo.create: duplicate class names";
  { buckets; threshold = min_int; t_admitted = 0; t_shed = 0;
    t_unknown_admitted = 0; tenant_buckets = [] }

(* Install the tenant fair-share pool, once, before the first
   admission: [rate_per_s] and [burst] describe the whole pool; each
   tenant's bucket gets its weight share of both, with burst floored
   at one token so every tenant can always eventually admit.

   The floor is water-filled, not minted: a tenant whose weighted
   share of the burst falls below one token gets exactly 1.0, and the
   remaining burst is re-split by weight among the unfloored tenants,
   iterating until no tenant drops below the floor.  The per-tenant
   bursts therefore sum to exactly [max burst (#tenants)] — the old
   unconditional [max 1.0 share] let a crowd of low-weight tenants
   sum to far more burst than the declared pool, quietly weakening
   the isolation guarantee.  When no tenant hits the floor the shares
   (and their floating-point bits) are unchanged. *)
let set_tenant_pool t ~rate_per_s ~burst specs =
  if t.tenant_buckets <> [] then
    invalid_arg "Slo.set_tenant_pool: the pool is already set";
  if rate_per_s <= 0.0 then
    invalid_arg "Slo.set_tenant_pool: rate must be positive";
  if burst < 1 then invalid_arg "Slo.set_tenant_pool: burst must be >= 1";
  let names = List.map (fun s -> s.tenant_name) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Slo.set_tenant_pool: duplicate tenant names";
  let total_w = List.fold_left (fun a s -> a +. s.tenant_weight) 0.0 specs in
  let bursts = Hashtbl.create (List.length specs) in
  let share ~remaining ~active_w s = remaining *. (s.tenant_weight /. active_w) in
  let rec settle active ~active_w ~remaining =
    let floored, kept =
      List.partition (fun s -> share ~remaining ~active_w s < 1.0) active
    in
    List.iter (fun s -> Hashtbl.replace bursts s.tenant_name 1.0) floored;
    if kept = [] then ()
    else if floored = [] then
      List.iter
        (fun s ->
          Hashtbl.replace bursts s.tenant_name (share ~remaining ~active_w s))
        kept
    else
      settle kept
        ~active_w:(List.fold_left (fun a s -> a +. s.tenant_weight) 0.0 kept)
        ~remaining:(remaining -. float_of_int (List.length floored))
  in
  settle specs ~active_w:total_w ~remaining:(float_of_int burst);
  t.tenant_buckets <-
    List.map
      (fun s ->
        let b = Hashtbl.find bursts s.tenant_name in
        ( s.tenant_name,
          {
            t_rate_per_s = rate_per_s *. (s.tenant_weight /. total_w);
            t_burst = b;
            t_tokens = b;
            t_refilled_us = 0.0;
          } ))
      specs

let tenant_rate_of t name =
  match List.assoc_opt name t.tenant_buckets with
  | Some b -> b.t_rate_per_s
  | None -> 0.0

let tenant_burst_of t name =
  match List.assoc_opt name t.tenant_buckets with
  | Some b -> b.t_burst
  | None -> 0.0

let classes t = List.map (fun (_, b) -> b.spec) t.buckets
let find t name = List.assoc_opt name t.buckets |> Option.map (fun b -> b.spec)

let min_deadline_us t =
  List.fold_left
    (fun acc (_, b) ->
      if acc = 0.0 then b.spec.deadline_us else Float.min acc b.spec.deadline_us)
    0.0 t.buckets

type verdict = Admitted | Shed_rate | Shed_priority | Shed_tenant

let refill b ~now_us =
  let dt = Float.max 0.0 (now_us -. b.refilled_us) in
  b.tokens <-
    Float.min (float_of_int b.spec.burst) (b.tokens +. (dt /. 1e6 *. b.spec.rate_per_s));
  b.refilled_us <- Float.max b.refilled_us now_us

let refill_tenant b ~now_us =
  let dt = Float.max 0.0 (now_us -. b.t_refilled_us) in
  b.t_tokens <- Float.min b.t_burst (b.t_tokens +. (dt /. 1e6 *. b.t_rate_per_s));
  b.t_refilled_us <- Float.max b.t_refilled_us now_us

let admit_class t ~class_name ~now_us =
  match List.assoc_opt class_name t.buckets with
  | None ->
    t.t_admitted <- t.t_admitted + 1;
    t.t_unknown_admitted <- t.t_unknown_admitted + 1;
    Admitted
  | Some b ->
    refill b ~now_us;
    if b.spec.priority < t.threshold then begin
      b.b_shed <- b.b_shed + 1;
      t.t_shed <- t.t_shed + 1;
      Shed_priority
    end
    else if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      b.b_admitted <- b.b_admitted + 1;
      t.t_admitted <- t.t_admitted + 1;
      Admitted
    end
    else begin
      b.b_shed <- b.b_shed + 1;
      t.t_shed <- t.t_shed + 1;
      Shed_rate
    end

(* The tenant fair-share gate sits in front of the class gate.  A
   tenant token is only consumed when the request is finally admitted,
   so a class-level shed does not burn the tenant's share. *)
let admit ?tenant t ~class_name ~now_us =
  let tb =
    match tenant with
    | None -> None
    | Some tn -> List.assoc_opt tn t.tenant_buckets
  in
  match tb with
  | None -> admit_class t ~class_name ~now_us
  | Some tb ->
    refill_tenant tb ~now_us;
    if tb.t_tokens < 1.0 then begin
      t.t_shed <- t.t_shed + 1;
      Shed_tenant
    end
    else begin
      match admit_class t ~class_name ~now_us with
      | Admitted ->
        tb.t_tokens <- tb.t_tokens -. 1.0;
        Admitted
      | v -> v
    end

let set_shed_below t prio = t.threshold <- prio
let shed_below t = t.threshold
let admitted t = t.t_admitted
let shed t = t.t_shed

let admitted_of t name =
  match List.assoc_opt name t.buckets with Some b -> b.b_admitted | None -> 0

let shed_of t name =
  match List.assoc_opt name t.buckets with Some b -> b.b_shed | None -> 0

let unknown_admitted t = t.t_unknown_admitted
