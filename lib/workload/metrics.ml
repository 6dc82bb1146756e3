module Stats = Mlv_util.Stats

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

let summarize = function
  | [] -> None
  | xs ->
    Some
      {
        count = List.length xs;
        mean = Stats.mean xs;
        p50 = Stats.percentile 50.0 xs;
        p90 = Stats.percentile 90.0 xs;
        p95 = Stats.percentile 95.0 xs;
        p99 = Stats.percentile 99.0 xs;
        min = List.fold_left Float.min infinity xs;
        max = List.fold_left Float.max neg_infinity xs;
      }

let pp_summary ~unit_name fmt s =
  Format.fprintf fmt "n=%d mean=%.1f%s p50=%.1f p90=%.1f p95=%.1f p99=%.1f max=%.1f"
    s.count s.mean unit_name s.p50 s.p90 s.p95 s.p99 s.max
