(** Programs: instruction sequences plus machine parameters. *)

type t = {
  instrs : Instr.t array;
  vregs : int;  (** vector register file size *)
  mregs : int;  (** matrix register (tile memory slot) count *)
}

(** [make ?vregs ?mregs instrs] builds a program (defaults: 32 vector
    and 16 matrix registers). *)
val make : ?vregs:int -> ?mregs:int -> Instr.t list -> t

val length : t -> int
val to_list : t -> Instr.t list

(** [validate p] checks register indices are in bounds, lengths and
    dimensions are positive, and every register is written before it
    is read.  Returns human-readable errors (empty when valid). *)
val validate : t -> string list

(** [dep_predecessors p] gives, for each instruction index, the
    indices of earlier instructions it depends on (direct hazards per
    {!Instr.depends}).  O(n^2); programs are small. *)
val dep_predecessors : t -> int list array

(** [opcode_histogram p] counts instructions by mnemonic. *)
val opcode_histogram : t -> (string * int) list


(** [pp] prints one instruction per line. *)
val pp : Format.formatter -> t -> unit
