(** The decomposing tool (paper §2.2.1).

    Decomposes an AS ISA-based accelerator's RTL onto the system
    abstraction with the bottom-up flow and the paper's five steps:

    + {b Build block graph} — elaborate the hierarchy down to basic
      modules; each basic-module instance becomes a leaf soft block;
      stray primitives in non-basic modules get their own blocks;
      inter-block connections carry the connected net widths.
    + {b Extract intra-block data parallelism} — split each basic
      module into connected components and equivalence-check them
      ({!Mlv_eqcheck.Check}); equivalent lanes become data-parallel
      children.
    + {b Identify inter-block data parallelism} — equivalent sibling
      blocks with identical fan-in/fan-out merge into a data-parallel
      group (including absorbing into an existing group — the three
      cases of Fig. 4b).
    + {b Identify pipeline parallelism} — unique-successor /
      unique-predecessor pairs merge into pipelines, recording the
      connection bandwidth on each internal edge (Fig. 4c composes
      with step 3 to give data-parallel groups of pipelines).
    + {b Iterate} — steps 3 and 4 repeat until no block can merge.

    The control path is split off first (identified by the
    [control_path] RTL attribute, or by names in
    [config.control_modules] — the designer marking of the paper) and
    kept as a single unchanged soft block.  Isolated residue blocks
    that touch only control blocks are folded into the control block
    (the paper's case-study adjustment of moving the converter and
    VRF, §3). *)

open Mlv_rtl

type config = {
  control_modules : string list;
      (** module names treated as control path, in addition to any
          module carrying the [control_path] attribute *)
  eq : Mlv_eqcheck.Check.config;  (** equivalence-checking effort *)
  enable_intra : bool;  (** run step 2 (on by default) *)
  simplify : bool;
      (** run {!Mlv_rtl.Transform.simplify} on every basic module
          before decomposing (off by default; semantics-preserving) *)
}

val default_config : config

type stats = {
  leaf_blocks : int;  (** blocks after step 1 *)
  dp_groups : int;  (** data-parallel nodes in the result *)
  pipe_groups : int;  (** pipeline nodes in the result *)
  eq_checks : int;  (** equivalence checks performed *)
  iterations : int;  (** step-5 fixpoint iterations *)
}

type decomposition = {
  control : Soft_block.t;  (** the unchanged control soft block *)
  data : Soft_block.t;  (** the decomposed data-path tree *)
  stats : stats;
}

(** [is_control_module config m] tells whether [m] is designer-marked
    control path: it carries the [control_path] attribute or is named
    in [config.control_modules]. *)
val is_control_module : config -> Ast.module_def -> bool

(** Equivalence-check state shared by the decomposition flows. *)
type eq_ctx = {
  design : Design.t;
  eq_config : Mlv_eqcheck.Check.config;
  cache : (string * string, bool) Hashtbl.t;  (** by ordered name pair *)
  mutable checks : int;
      (** equivalence checks of this run; a check whose result is
          reused from the {!session} counts as if run, so the count
          does not depend on sharing *)
}

(** [modules_equivalent ctx a b]: [a] and [b] name the same module, or
    both are basic modules that {!Mlv_eqcheck.Check} proves
    equivalent; each pair is checked once and cached. *)
val modules_equivalent : eq_ctx -> string -> string -> bool

(** Per-module analyses shared by the runs that are given the same
    session: whether a module is basic, its ports by name, its leaf
    resource estimate and step 2's lanes (with the equivalence checks
    they cost and the checking effort they were found under).  An
    analysis is reused only for physically the same module value
    ([==]), so designs that share modules (as
    {!Mlv_accel.Rtl_gen.generate}[ ~shared] makes them) share their
    analyses, and no two distinct values are ever confused. *)
type session

val session : unit -> session

(** [run ?config ?session design ~top] decomposes module [top].
    Without [session] every analysis is made for this run alone; with
    one, the result is the same.  Returns [Error reason] when the
    design does not validate, [top] is missing, or no control path can
    be identified. *)
val run :
  ?config:config -> ?session:session -> Design.t -> top:string -> (decomposition, string) result
