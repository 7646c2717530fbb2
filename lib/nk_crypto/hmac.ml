let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  Bytes.to_string padded

let xor_pad key byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key

(* H(pad ^ text), with the pad and the text fed separately so the
   message is never copied. *)
let padded_digest key byte text =
  let ctx = Sha256.init () in
  Sha256.update ctx (xor_pad key byte);
  Sha256.update ctx text;
  Sha256.finalize ctx

let mac ~key msg =
  let key = normalize_key key in
  padded_digest key 0x5c (padded_digest key 0x36 msg)

let mac_hex ~key msg = Sha256.hex (mac ~key msg)
