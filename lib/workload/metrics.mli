(** Latency/throughput summaries for workload evaluations. *)

type summary = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  min : float;
  max : float;
}

(** [summarize xs] is [None] on the empty list. *)
val summarize : float list -> summary option

(** [pp_summary ~unit_name fmt s] renders one line, e.g.
    ["n=120 mean=3.2ms p50=2.9 p95=7.7 p99=9.0 max=9.4"]. *)
val pp_summary : unit_name:string -> Format.formatter -> summary -> unit
