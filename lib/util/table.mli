(** ASCII table rendering for the benchmark harness, in the style of
    the tables in the paper. *)

type t

(** [create ~title headers] starts a table with column [headers].
    Columns are right-aligned by default except the first. *)
val create : ?title:string -> string list -> t

(** [add_row t cells] appends one row.
    @raise Invalid_argument if the arity differs from the header. *)
val add_row : t -> string list -> unit

(** [render t] produces the complete table as a string. *)
val render : t -> string

(** [print t] writes [render t] to stdout. *)
val print : t -> unit

(** [fmt_float ?digits x] formats with [digits] decimals (default 4),
    trimming to a compact representation. *)
val fmt_float : ?digits:int -> float -> string

(** [fmt_pct x] formats a ratio [x] as a percentage with one decimal,
    e.g. [fmt_pct 0.078 = "7.8%"]. *)
val fmt_pct : float -> string
