let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  Bytes.to_string padded

let xor_pad key byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key

let mac ~key msg =
  let key = normalize_key key in
  let inner = Sha256.digest (xor_pad key 0x36 ^ msg) in
  Sha256.digest (xor_pad key 0x5c ^ inner)

let mac_hex ~key msg = Sha256.hex (mac ~key msg)
