(** Emits a design back to the textual Verilog subset accepted by
    {!Parser}, so generated accelerators can be inspected and
    round-tripped in tests. *)

(** [design_to_string d] renders every module in registration order. *)
val design_to_string : Design.t -> string
