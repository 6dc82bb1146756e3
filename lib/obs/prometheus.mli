(** Prometheus / OpenMetrics text exposition over the {!Obs} registry
    and the {!Series} rings.

    [render ()] produces the classic text format (version 0.0.4):

    - every counter as a [counter] metric,
    - every histogram as a [summary] (p50/p90/p99 [quantile] series
      plus [_count] and [_sum]),
    - every {!Series}' latest windowed value as a [gauge]
      (suffix [:rate], [:gauge] or [:p<q>] by kind).

    Metric names are sanitized to [[a-zA-Z0-9_:]] (every other byte
    becomes [_]); labels come from the registry's canonical
    [base{k=v,...}] keys with values escaped per the exposition spec
    (backslash, double-quote and newline).  Output is sorted and
    deterministic, ready for [mlvsim --prom-out] or a scrape
    endpoint. *)

(** [metric_name s] is [s] with every byte outside [[a-zA-Z0-9_:]]
    replaced by [_] (a leading digit also gains a [_] prefix). *)
val metric_name : string -> string

(** [escape_label_value s] backslash-escapes backslashes,
    double-quotes and newlines. *)
val escape_label_value : string -> string


(** [render ()] is the full exposition document (text format 0.0.4),
    terminated by a newline. *)
val render : unit -> string

(** [write path] writes {!render} to [path]. *)
val write : string -> unit
