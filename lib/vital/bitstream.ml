open Mlv_fpga

type t = {
  accel_name : string;
  partition_id : string;
  device : Device.kind;
  vbs : int;
  crossings : int;
  freq_mhz : float;
  tiles : int;
}

let make ~accel_name ~partition_id ~device ~vbs ~crossings ~freq_mhz ~tiles =
  { accel_name; partition_id; device; vbs; crossings; freq_mhz; tiles }

let id t = Printf.sprintf "%s/%s@%s" t.accel_name t.partition_id (Device.kind_name t.device)

let pp fmt t =
  Format.fprintf fmt "%s{vbs=%d; crossings=%d; %.0fMHz; tiles=%d}" (id t) t.vbs
    t.crossings t.freq_mhz t.tiles

module Cache = struct
  module Lru = Mlv_util.Lru

  type bitstream = t

  (* LRU over (accel, partition, device kind) — exactly [id].  Entries
     model bitstreams staged in card DRAM: a hit reprograms from
     on-card memory at a tenth of the PCIe transfer cost. *)
  type t = (string, unit) Lru.t

  let hit_cost_factor = 0.1

  let create ?(capacity = 64) () =
    if capacity <= 0 then invalid_arg "Bitstream.Cache.create: capacity <= 0";
    Lru.create capacity

  let mem c (bs : bitstream) = Lru.mem c (id bs)

  let charge c k ~base_us =
    match Lru.find c k with
    | Some () -> base_us *. hit_cost_factor
    | None ->
      ignore (Lru.put c k ());
      base_us

  let capacity = Lru.capacity
  let length = Lru.length
  let hits = Lru.hits
  let misses = Lru.misses
  let evictions = Lru.evictions
  let hit_rate = Lru.hit_rate
end
