(* The event-engine interface that [Mlv_cluster.Sim] and [Heap_sim]
   both satisfy, so a test or bench can drive either one. *)

module type S = sig
  type t

  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> unit
  val schedule_at : t -> at:float -> (unit -> unit) -> unit
  val schedule_stream : t -> at:('a -> float) -> ('a -> unit) -> 'a list -> unit
  val run : ?until:float -> t -> unit
  val pending : t -> int
  val events_processed : t -> int
end
