(** The mapping-result database of the system controller (paper
    §2.3, Fig. 7), in deployment-ready form.

    Per accelerator it stores the compiled partitioning results for
    every level and device type, precomputed at registration time so
    the runtime never re-sorts or re-filters per request: a {!plan}
    holds, for both search directions and for the whole-device
    (AS-ISA-only) policy subset, every level's pieces in allocation
    order with per-kind bitstream lookup tables.  A deployment request
    then walks plain precomputed lists. *)

open Mlv_fpga

(** One partition piece, deployment-ready. *)
type piece_plan = {
  piece : Mapping.compiled_piece;
  options : (Device.kind * Mlv_vital.Bitstream.t) list;
      (** feasible device options, mapping order *)
  options_by_kind : (Device.kind * (Device.kind * Mlv_vital.Bitstream.t) list) list;
      (** per-kind restriction of [options] (same-type-only search) *)
  cache_keys : (Mlv_vital.Bitstream.t * string) list;
      (** each option's {!Mlv_vital.Bitstream.id}, computed once *)
}

type level_plan = {
  piece_count : int;
  pieces : piece_plan list;  (** allocation order: tiles descending, stable *)
}

(** The least a placement of some level needs: [need_vbs] free
    virtual blocks and [need_pieces] pieces ([max_int] for both when no
    level has an option for every piece). *)
type need = { need_vbs : int; need_pieces : int }

type plan = {
  mapping : Mapping.t;
  fewest_first : level_plan list;  (** levels by piece count ascending *)
  most_first : level_plan list;  (** reversed *)
  single_fewest : level_plan list;  (** one-piece levels only *)
  single_most : level_plan list;
  need_any : need;  (** over every level *)
  need_single : need;  (** over the one-piece levels *)
}

(** [levels plan ~fewest_first ~whole_device] is the precomputed
    level order a policy searches. *)
val levels : plan -> fewest_first:bool -> whole_device:bool -> level_plan list

(** [need plan ~whole_device] is the least any level of [levels plan
    ~whole_device] needs: per level, the sum over its pieces of their
    smallest option's virtual blocks, and the level's piece count,
    each minimised over the levels independently.  Computed once, at
    registration. *)
val need : plan -> whole_device:bool -> need

(** [options pp ~kind] is the piece's device options, restricted to
    [kind] when given.  Unknown kinds yield []. *)
val options :
  piece_plan -> kind:Device.kind option -> (Device.kind * Mlv_vital.Bitstream.t) list

(** [cache_key pp bs] is option [bs]'s {!Mlv_vital.Bitstream.id}
    (the bitstream-cache key) without building it.
    @raise Not_found unless [bs] is physically one of [pp]'s options. *)
val cache_key : piece_plan -> Mlv_vital.Bitstream.t -> string

(** [shape_signature plan] is a canonical cache key for the compiled
    plan: equal signatures iff the control and data trees are
    shape-equal ({!Soft_block.shape_key}) and the partitioning depth
    matches.  The serving front door keys its compiled-mapping cache
    by this, so repeat requests for an already-compiled shape skip
    the decompose/partition/mapping pipeline. *)
val shape_signature : plan -> string

(** Tables keyed by accelerator name, compared with [String.equal]. *)
module Names : Hashtbl.S with type key = string

type t

val create : unit -> t

(** [register t mapping] stores (or replaces) an accelerator's
    mapping results, precomputing its deployment plan. *)
val register : t -> Mapping.t -> unit

(** [remove t name] deletes an accelerator's mapping results; no-op
    when unknown.  Live deployments of it keep working, but new
    deploys (and rebalances touching it) fail with an unknown-
    accelerator error. *)
val remove : t -> string -> unit

(** [find t name] is the accelerator's plan; its raw mapping results
    are [plan.mapping]. *)
val find : t -> string -> plan option

(** [names t] lists registered accelerators alphabetically. *)
val names : t -> string list
