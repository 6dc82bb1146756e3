(** Compiled deployment artifacts.

    One bitstream is the result of mapping one partition (a cluster
    of soft blocks) onto one device type's virtual blocks.  The
    mapping database of the runtime (paper Fig. 7) stores, per
    accelerator, one bitstream per (partition, device type) pair so
    deployment never recompiles. *)

open Mlv_fpga

type t = {
  accel_name : string;  (** the accelerator this belongs to *)
  partition_id : string;  (** which partition unit, e.g. ["p2/0"] *)
  device : Device.kind;
  vbs : int;  (** virtual blocks occupied *)
  crossings : int;
  freq_mhz : float;
  tiles : int;  (** engines contained in this partition *)
}

val make :
  accel_name:string ->
  partition_id:string ->
  device:Device.kind ->
  vbs:int ->
  crossings:int ->
  freq_mhz:float ->
  tiles:int ->
  t

(** [id t] is a unique key, e.g. ["npu-t21/p2/0@XCVU37P"]. *)
val id : t -> string

val pp : Format.formatter -> t -> unit

(** LRU bitstream cache modeling card-DRAM bitstream staging.
    Reconfiguration cost is dominated by moving the partial bitstream
    over PCIe; a cloud runtime keeps recently used bitstreams staged
    in the card's DRAM so a repeat deployment reprograms from on-card
    memory.  The cache is keyed by {!id} — (accelerator, partition,
    device kind) — with a bounded capacity and least-recently-used
    eviction.  {!Cache.charge} folds the model into one call: a miss
    pays the full transfer cost and stages the bitstream (evicting
    the LRU entry when full); a hit pays a tenth of it and refreshes
    recency.

    A runtime created without a cache never calls [charge], so
    deployment times are bit-identical to builds without this
    module. *)
module Cache : sig
  type bitstream = t

  type t

  (** [create ()] holds up to [capacity] bitstreams (default 64).
      @raise Invalid_argument on a non-positive capacity. *)
  val create : ?capacity:int -> unit -> t

  (** [charge t key ~base_us] is the modeled reconfiguration time for
      loading the bitstream whose {!id} is [key] given a full-transfer
      cost of [base_us], updating the cache (hit promotes; miss
      inserts, evicting if full).  Callers keep the key, so pricing a
      load builds no string. *)
  val charge : t -> string -> base_us:float -> float

  (** [mem t bs] tells whether [bs] is currently staged (no recency
      update). *)
  val mem : t -> bitstream -> bool

  val capacity : t -> int
  val length : t -> int
  val hits : t -> int
  val misses : t -> int
  val evictions : t -> int

  (** [hit_rate t] is [hits / (hits + misses)]; 0 before any charge. *)
  val hit_rate : t -> float
end
