(** Small statistics helpers used by the benchmark harness and the
    runtime metrics collector. *)

(** [mean xs] is the arithmetic mean; 0 on the empty list. *)
val mean : float list -> float

(** [stddev xs] is the population standard deviation; 0 if fewer than
    two samples. *)
val stddev : float list -> float

(** [percentile p xs] is the [p]-th percentile (0 <= p <= 100) using
    linear interpolation between closest ranks.
    @raise Invalid_argument on the empty list or out-of-range [p]. *)
val percentile : float -> float list -> float

(** [median xs] is [percentile 50. xs]. *)
val median : float list -> float

(** [percentile_many ps xs] is [List.map (fun p -> percentile p xs) ps]
    computed with one pass of selection over [xs] — bit-identical
    results.  Both select the order statistics they need instead of
    sorting [xs], except when a sample is [-0.0]: then they sort, since
    which of two equal zeros a rank reads depends on the permutation.
    @raise Invalid_argument as {!percentile}. *)
val percentile_many : float list -> float list -> float list

(** [geomean xs] is the geometric mean of strictly positive samples.
    @raise Invalid_argument if any sample is non-positive or the list
    is empty. *)
val geomean : float list -> float

(** Streaming accumulator: O(1) space mean / min / max / count. *)
module Acc : sig
  type t

  val create : unit -> t

  (** [reset t] empties [t] in place: it then reads as [create ()]. *)
  val reset : t -> unit

  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val sum : t -> float
end

(** Streaming quantile estimation with the P² (P-squared) algorithm
    of Jain & Chlamtac: five markers, O(1) space, allocation-free per
    observation.  Estimates a single pre-chosen quantile; accuracy is
    typically within a fraction of a percent for smooth distributions
    once a few hundred samples have been seen. *)
module P2 : sig
  type t

  (** [create p] estimates the [p]-quantile, [0 < p < 1] (e.g.
      [create 0.99] for p99). @raise Invalid_argument otherwise. *)
  val create : float -> t

  (** [add t x] feeds one observation. *)
  val add : t -> float -> unit

  val count : t -> int

  (** [reset t] rewinds the estimator to its freshly-created state
      without allocating — ring-buffer telemetry buckets reuse one
      estimator per slot. *)
  val reset : t -> unit

  (** [quantile t] is the current estimate; exact for the first five
      samples, 0 when no sample has been added. *)
  val quantile : t -> float
end
