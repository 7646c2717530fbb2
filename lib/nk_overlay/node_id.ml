type t = int (* 63-bit, non-negative *)

let ring_bits = 62

let ring_size = 1 lsl ring_bits

let mask = ring_size - 1

let of_string s =
  let digest = Nk_crypto.Sha256.digest s in
  let acc = ref 0 in
  for i = 0 to 7 do
    acc := (!acc lsl 8) lor Char.code digest.[i]
  done;
  !acc land mask

let of_int i =
  if i < 0 then invalid_arg "Node_id.of_int: negative";
  i land mask

let to_int t = t

let compare = Int.compare

let equal = Int.equal

let distance a b = (b - a) land mask

let add_pow2 t i =
  if i < 0 || i >= ring_bits then invalid_arg "Node_id.add_pow2: bad exponent";
  (t + (1 lsl i)) land mask
