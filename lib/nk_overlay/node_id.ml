type t = int (* 62-bit, non-negative *)

let mask = max_int (* 2^62 - 1: the ring has 2^62 positions *)

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

let equal = Int.equal
