(** Block floating point (BFP).

    The matrix-vector units use BFP to pack many narrow multipliers
    per DSP/LUT (paper §3, after BrainWave): a block of values shares
    one exponent, and each value keeps only a narrow signed mantissa.
    Encoding is lossy; the [dot] operation models the hardware
    datapath — exact integer multiply-accumulate over mantissas, one
    final scale by the shared exponents. *)

type t = {
  exponent : int;  (** power-of-two scale *)
  mantissas : int array;  (** signed, within the configured bit budget *)
  mantissa_bits : int;
}

(** [encode ~mantissa_bits xs] quantizes a block.  The shared
    exponent is chosen so the largest magnitude fills the mantissa
    range.  [mantissa_bits] counts the sign bit (BrainWave uses 5-6). *)
val encode : mantissa_bits:int -> float array -> t

(** [decode b] recovers the (lossy) float values. *)
val decode : t -> float array

(** [dot a b] multiplies-and-accumulates two equal-length blocks the
    way the hardware does: integer MACs, single final scaling.
    @raise Invalid_argument on length mismatch. *)
val dot : t -> t -> float

(** [quantize ~mantissa_bits xs] is [decode (encode xs)] — what a
    value looks like after a trip through the BFP datapath. *)
val quantize : mantissa_bits:int -> float array -> float array

