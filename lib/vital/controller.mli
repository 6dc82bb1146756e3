(** The low-level controller of the HS-abstraction solution
    (paper Fig. 7): manages one physical device's virtual blocks,
    loading/unloading bitstreams by partial reconfiguration.

    The framework's system controller talks to one of these per
    physical FPGA. *)

open Mlv_fpga

type t

(** A loaded bitstream's handle. *)
type handle

(** [create kind] is a controller for an empty device of that type. *)
val create : Device.kind -> t

val device : t -> Device.kind

(** [total_vbs t] / [free_vbs t] count virtual blocks. *)
val total_vbs : t -> int

val free_vbs : t -> int

(** [consistent t] is true when the free count {!free_vbs} keeps
    equals the number of unoccupied blocks; the tests check it after
    every load and unload. *)
val consistent : t -> bool

(** [load t bitstream] allocates the bitstream's virtual blocks.
    Returns the handle and the reconfiguration time in microseconds,
    or [Error reason] on device-type mismatch or lack of space. *)
val load : t -> Bitstream.t -> (handle * float, string) result

(** [unload t h] frees the blocks; idempotent.
    @raise Invalid_argument if [h] belongs to another controller. *)
val unload : t -> handle -> unit

(** [loaded t] lists currently loaded bitstreams. *)
val loaded : t -> Bitstream.t list

(** [reconfig_time_us kind ~vbs] models partial-reconfiguration time:
    bitstream size scales with the region count. *)
val reconfig_time_us : Device.kind -> vbs:int -> float
