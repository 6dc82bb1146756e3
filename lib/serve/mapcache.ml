module Obs = Mlv_obs.Obs
module Lru = Mlv_util.Lru

(* An exact LRU of compiled-mapping results keyed by canonical shape
   signatures, with its counts mirrored into the registry. *)
type ('k, 'a) t = {
  lru : ('k, 'a) Lru.t;
  c_hits : Obs.Counter.t;
  c_misses : Obs.Counter.t;
  c_evictions : Obs.Counter.t;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Mapcache.create: capacity must be >= 1";
  {
    lru = Lru.create capacity;
    c_hits = Obs.Counter.get "serve.mapcache.hits";
    c_misses = Obs.Counter.get "serve.mapcache.misses";
    c_evictions = Obs.Counter.get "serve.mapcache.evictions";
  }

let capacity t = Lru.capacity t.lru
let length t = Lru.length t.lru
let mem t key = Lru.mem t.lru key

let find t key =
  let v = Lru.find t.lru key in
  Obs.Counter.incr (match v with Some _ -> t.c_hits | None -> t.c_misses);
  v

let put t key v = if Lru.put t.lru key v then Obs.Counter.incr t.c_evictions
let hits t = Lru.hits t.lru
let misses t = Lru.misses t.lru
let evictions t = Lru.evictions t.lru
let hit_rate t = Lru.hit_rate t.lru
let keys t = Lru.keys t.lru
