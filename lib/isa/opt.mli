(** Program optimizer.

    Semantics-preserving clean-ups applied before a program is loaded
    into the instruction buffer: smaller programs mean fewer buffer
    words and fewer issue slots.

    - [remove_nops] drops [nop]s;
    - [optimize] also drops, to a fixpoint, instructions whose only
      effect is writing a register that is overwritten before any read
      (memory writes and synchronization accesses are never dropped;
      programs containing hardware loops keep all but their [nop]s —
      liveness across a back edge needs a fixpoint this pass does not
      do). *)

val remove_nops : Program.t -> Program.t
val optimize : Program.t -> Program.t

(** [eliminated ~before ~after] counts removed instructions. *)
val eliminated : before:Program.t -> after:Program.t -> int
