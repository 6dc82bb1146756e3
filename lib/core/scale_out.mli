(** Scale-out optimization (paper §2.3, Fig. 8).

    Instead of splitting one accelerator across FPGAs, the framework
    scales it {e down} into [parts] smaller accelerators — the
    control path unchanged, each data path holding a row-slice of
    every weight matrix — and inserts DRAM-mapped send/receive
    instructions handled by the synchronization template module.
    The instruction reorderer then sinks the barrier reads below
    independent work so the inter-FPGA transfer overlaps the next
    timestep's input-side matrix multiplications.

    LSTM exchanges one vector per timestep (the hidden state); GRU
    needs a second exchange (the reset-gated state [r o h] feeding
    the candidate), which is why large GRU models stop hiding the
    communication latency in Fig. 11. *)

open Mlv_isa

(** Per-part program and DRAM layout. *)
type part_layout = {
  kind : Codegen.kind;
  hidden : int;  (** full model hidden size *)
  input : int;
  timesteps : int;
  parts : int;
  part : int;  (** this part's index *)
  slice : int;  (** rows this part owns = hidden / parts *)
  weights : Codegen.weight_spec list;  (** sliced matrices *)
  x_base : int;
  h_out_base : int;  (** this part's slice of every h_t *)
  sync_base : int;
  dram_words : int;
}

(** [generate kind ~hidden ~input ~timesteps ~parts ~part] emits the
    scaled-down program for one part.
    @raise Invalid_argument unless [parts >= 2], [0 <= part < parts]
    and [parts] divides [hidden]. *)
val generate :
  Codegen.kind ->
  hidden:int ->
  input:int ->
  timesteps:int ->
  parts:int ->
  part:int ->
  Program.t * part_layout

(** [reorder ~sync_base p] is the optimization tool: a stable
    dependency-preserving reorder that hoists synchronization sends
    as early as their operands allow and sinks synchronization reads
    below independent instructions.  Programs with hardware loops or
    indexed accesses are returned unchanged.

    Memory hazards follow {!Exec}: a [V_rd]/[V_wr] at [addr >=
    sync_base] is a mailbox access keyed by [addr], ordered (RAW, WAR,
    WAW) only against mailbox accesses to the same address, whatever
    its length.  Every other memory access, including an [M_rd] at any
    address, is a DRAM interval ordered against every overlapping DRAM
    interval.  The two namespaces never conflict.

    Cost: O(n log n + E + D (L log D) + H) time and O(n + E) space for
    [n] instructions, [E] dependence edges, [D] DRAM accesses of [L]
    distinct lengths and [H] overlapping DRAM pairs, plus a shift for
    each access that arrives below a later one of its length.  One
    pass matches each instruction's constructor and records its
    edges in per-predecessor lists of one word per edge; an edge is a
    duplicate exactly when it is its predecessor's latest, and a
    write-after-write edge that readers of the slot already imply is
    left out (the order depends only on the partial order).  Mailboxes
    are tracked per address as registers are; DRAM accesses are
    indexed by length and start address, so a query touches only the
    accesses that overlap it.  The schedule pops (class, index) keys
    off a small binary heap.  About 3 ms for GRU h=1024 t=1500 (34,509
    instructions, 82,486 edges kept) on a 2-vCPU x86-64 VM, allocating
    about 6.5 words per instruction, the output included.
    @raise Invalid_argument on a register out of range, or a program
    of 2{^31} or more instructions or dependence edges. *)
val reorder : sync_base:int -> Program.t -> Program.t

(** [link layouts] wires [parts] executors together: element [i] of
    the returned array is the port for part [i].  Receives implement
    the template module's merge: the full vector assembled from all
    parts' slices, barrier-blocking until every slice for that step
    has arrived. *)
val link : part_layout array -> Exec.port array

(** [init_part_dram ~full_layout ~full_dram layout] builds part
    [layout.part]'s DRAM image from the unsliced model's DRAM, so
    numerical results are comparable with {!Codegen.golden}. *)
val init_part_dram :
  full_layout:Codegen.layout -> full_dram:float array -> part_layout -> float array

(** [run_parts ?exact programs layouts ~drams ~max_steps]
    co-simulates all parts round-robin until completion, each part
    executing against its DRAM image (see {!init_part_dram}).
    Returns the executors for inspection.
    @raise Failure on deadlock or budget exhaustion. *)
val run_parts :
  ?exact:bool ->
  Program.t array ->
  part_layout array ->
  drams:float array array ->
  max_steps:int ->
  Exec.t array

(** A scale-out plan: part 0's program (reordered or not) and its
    layout.  It depends only on the model shape and [parts], not on
    the device, the tile count or the link latency, so one plan serves
    every timing query for that shape. *)
type plan = { program : Program.t; layout : part_layout }

(** [plan ~reordered kind ~hidden ~input ~timesteps ~parts] generates
    part 0's program and, when [reordered], runs {!reorder} on it,
    moving the instructions within the generated array, which nothing
    else holds.
    @raise Invalid_argument as {!generate}. *)
val plan :
  reordered:bool ->
  Codegen.kind ->
  hidden:int ->
  input:int ->
  timesteps:int ->
  parts:int ->
  plan

(** [plan_latency_us ~config ~device ~added_latency_us plan] is the
    timing half of {!multi_fpga_latency_us}: [plan.layout.parts]
    parts, each on [device] with [config] tiles. *)
val plan_latency_us :
  ?partner_slowdown:float ->
  config:Mlv_accel.Config.t ->
  device:Mlv_fpga.Device.t ->
  added_latency_us:float ->
  plan ->
  float

(** [multi_fpga_latency_us ~parts ~config ~device ~added_latency_us
    ~reordered kind ~hidden ~input ~timesteps] analyzes a [parts]-way
    scale-out deployment, each part running on [device] with [config]
    tiles.  A barrier read waits for the slowest partner's slice: on
    a ring of [parts] FPGAs, (parts-1) slices arrive over up to
    [parts/2] hops.  [partner_slowdown] (default 1.0) stretches the
    partner's send times for heterogeneous deployments (e.g. an
    XCVU37P paired with the slower XCKU115).  Equal to
    {!plan_latency_us} over {!plan}. *)
val multi_fpga_latency_us :
  ?partner_slowdown:float ->
  parts:int ->
  config:Mlv_accel.Config.t ->
  device:Mlv_fpga.Device.t ->
  added_latency_us:float ->
  reordered:bool ->
  Codegen.kind ->
  hidden:int ->
  input:int ->
  timesteps:int ->
  float

(** [two_fpga_latency_us] is {!multi_fpga_latency_us} with
    [~parts:2] — the Fig. 11 configuration. *)
val two_fpga_latency_us :
  config:Mlv_accel.Config.t ->
  device:Mlv_fpga.Device.t ->
  added_latency_us:float ->
  reordered:bool ->
  Codegen.kind ->
  hidden:int ->
  input:int ->
  timesteps:int ->
  float

(** {2 MLP scale-out}

    The feed-forward counterpart: every layer's output is sliced
    across the parts and exchanged before the next layer consumes it.
    Consecutive samples are independent, so after reordering the
    exchange of sample [b]'s activations hides behind sample [b+1]'s
    first-layer matrix multiply. *)

type mlp_layout = {
  mspec : Mlp.spec;
  mbatch : int;
  mparts : int;
  mpart : int;
  mweights : Codegen.weight_spec list;  (** row-sliced layer matrices *)
  mx_base : int;
  my_base : int;  (** this part's output slices *)
  out_slice : int;
  msync_base : int;
  mdram_words : int;
}

(** [generate_mlp spec ~batch ~parts ~part] emits one part's program.
    @raise Invalid_argument unless [parts] divides every non-input
    layer dimension. *)
val generate_mlp : Mlp.spec -> batch:int -> parts:int -> part:int -> Program.t * mlp_layout

(** [init_mlp_part_dram ~full_layout ~full_dram lay] slices the
    unsliced model's DRAM image for one part. *)
val init_mlp_part_dram :
  full_layout:Mlp.layout -> full_dram:float array -> mlp_layout -> float array

(** [run_mlp_parts ?exact programs layouts ~drams ~max_steps]
    co-simulates the MLP parts. *)
val run_mlp_parts :
  ?exact:bool ->
  Program.t array ->
  mlp_layout array ->
  drams:float array array ->
  max_steps:int ->
  Exec.t array

(** [mlp_latency_us ~parts ~config ~device ~added_latency_us
    ~reordered spec ~batch] is the timing analysis for an MLP
    scale-out deployment. *)
val mlp_latency_us :
  parts:int ->
  config:Mlv_accel.Config.t ->
  device:Mlv_fpga.Device.t ->
  added_latency_us:float ->
  reordered:bool ->
  Mlp.spec ->
  batch:int ->
  float
