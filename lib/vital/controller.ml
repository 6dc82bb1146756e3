open Mlv_fpga
module Obs = Mlv_obs.Obs

type handle = { hid : int; owner : int }

type entry = { bitstream : Bitstream.t; vb_indices : int list }

(* [free] counts the unoccupied blocks: [load] and [unload] keep it,
   so asking for it is O(1). *)
type t = {
  kind : Device.kind;
  uid : int;
  occupied : bool array;
  table : entry Mlv_util.Int_table.t;
  mutable next_hid : int;
  mutable free : int;
}

let uid_counter = ref 0

let create kind =
  incr uid_counter;
  {
    kind;
    uid = !uid_counter;
    occupied = Array.make (Virtual_block.count kind) false;
    table = Mlv_util.Int_table.create 8;
    next_hid = 0;
    free = Virtual_block.count kind;
  }

let device t = t.kind
let total_vbs t = Array.length t.occupied

let free_vbs t = t.free

let consistent t =
  t.free = Array.fold_left (fun acc o -> if o then acc else acc + 1) 0 t.occupied

(* Metric handles, resolved on first use. *)
let load_reject = lazy (Obs.Counter.get "vital.load.reject")
let load_ok = lazy (Obs.Counter.get "vital.load")
let reconfig_hist = lazy (Obs.Histogram.get "vital.reconfig_us")
let unload_count = lazy (Obs.Counter.get "vital.unload")

(* Partial reconfiguration streams ~30 MB per region over PCIe. *)
let reconfig_time_us kind ~vbs =
  let bytes_per_region =
    match kind with Device.XCVU37P -> 30_000_000 | Device.XCKU115 -> 18_000_000
  in
  Board.pcie_transfer_time_us Board.default ~bytes:(vbs * bytes_per_region)

let load t (b : Bitstream.t) =
  Obs.Span.with_ "reconfig" (fun () ->
      if not (Device.equal_kind b.Bitstream.device t.kind) then begin
        Obs.Counter.incr (Lazy.force load_reject);
        Error
          (Printf.sprintf "bitstream %s targets %s, device is %s" (Bitstream.id b)
             (Device.kind_name b.Bitstream.device)
             (Device.kind_name t.kind))
      end
      else if free_vbs t < b.Bitstream.vbs then begin
        Obs.Counter.incr (Lazy.force load_reject);
        Error
          (Printf.sprintf "device has %d free virtual blocks, bitstream needs %d"
             (free_vbs t) b.Bitstream.vbs)
      end
      else begin
        let indices = ref [] in
        let needed = ref b.Bitstream.vbs in
        for i = 0 to Array.length t.occupied - 1 do
          if (not t.occupied.(i)) && !needed > 0 then begin
            t.occupied.(i) <- true;
            t.free <- t.free - 1;
            indices := i :: !indices;
            decr needed
          end
        done;
        let hid = t.next_hid in
        t.next_hid <- t.next_hid + 1;
        Mlv_util.Int_table.replace t.table hid { bitstream = b; vb_indices = !indices };
        let time_us = reconfig_time_us t.kind ~vbs:b.Bitstream.vbs in
        Obs.Counter.incr (Lazy.force load_ok);
        Obs.Histogram.observe (Lazy.force reconfig_hist) time_us;
        Ok ({ hid; owner = t.uid }, time_us)
      end)

let unload t (h : handle) =
  if h.owner <> t.uid then invalid_arg "Controller.unload: foreign handle";
  match Mlv_util.Int_table.find_opt t.table h.hid with
  | None -> ()
  | Some entry ->
    List.iter
      (fun i ->
        t.occupied.(i) <- false;
        t.free <- t.free + 1)
      entry.vb_indices;
    Mlv_util.Int_table.remove t.table h.hid;
    Obs.Counter.incr (Lazy.force unload_count)

let loaded t =
  Mlv_util.Int_table.fold (fun _ e acc -> e.bitstream :: acc) t.table []
  |> List.sort (fun a b -> compare (Bitstream.id a) (Bitstream.id b))
