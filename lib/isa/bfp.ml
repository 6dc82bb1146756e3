type t = { exponent : int; mantissas : int array; mantissa_bits : int }

let encode ~mantissa_bits xs =
  if mantissa_bits < 2 || mantissa_bits > 16 then
    invalid_arg "Bfp.encode: mantissa_bits out of range";
  let max_mag = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 xs in
  if max_mag = 0.0 then
    { exponent = 0; mantissas = Array.map (fun _ -> 0) xs; mantissa_bits }
  else begin
    (* Choose exponent so that max_mag scales into [half_range, range).
       If the largest magnitude would round up past the mantissa range
       (it sits exactly on a power-of-two boundary), widen the
       exponent instead of clamping — this keeps encoding idempotent. *)
    let range = 1 lsl (mantissa_bits - 1) in
    let exponent =
      let e =
        ref (int_of_float (Float.ceil (Float.log2 (max_mag /. float_of_int range))))
      in
      while
        Float.round (max_mag *. (2.0 ** float_of_int (- !e))) > float_of_int (range - 1)
      do
        incr e
      done;
      !e
    in
    let scale = 2.0 ** float_of_int (-exponent) in
    let clamp v = max (-range) (min (range - 1) v) in
    let mantissas =
      Array.map (fun x -> clamp (int_of_float (Float.round (x *. scale)))) xs
    in
    { exponent; mantissas; mantissa_bits }
  end

let decode b =
  let scale = 2.0 ** float_of_int b.exponent in
  Array.map (fun m -> float_of_int m *. scale) b.mantissas

let dot a b =
  if Array.length a.mantissas <> Array.length b.mantissas then
    invalid_arg "Bfp.dot: length mismatch";
  let acc = ref 0 in
  Array.iteri (fun i ma -> acc := !acc + (ma * b.mantissas.(i))) a.mantissas;
  float_of_int !acc *. (2.0 ** float_of_int (a.exponent + b.exponent))

let quantize ~mantissa_bits xs = decode (encode ~mantissa_bits xs)

