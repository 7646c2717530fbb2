(* FIPS 180-4 SHA-256 on native ints, so hashing allocates nothing per
   block.

   A 32-bit word lives in the low half of a 63-bit OCaml int. Addition,
   [lxor], [land], [lor] and [lnot] never carry information from high
   bits down to low ones, so the low 32 bits of any expression built
   from them depend only on the low 32 bits of its operands: sums are
   left dirty, and only a shift right reads high bits. Every word that
   is shifted right is therefore clean — it is masked when it is
   stored, in [w], [h] or the working variables [a] and [e]. A clean
   word [x] rotates right by [n] < 32 as one shift of the doubled word
   [x lor (x lsl 32)], whose bits [n .. n+31] are [x] rotated (the
   top copy loses [x]'s bit 31 off the end of the int, but a rotation
   by [n] reads only its bits [0 .. n-1]). The sigma functions xor
   three such shifts and leave the high bits dirty for the sum. *)

let mask = 0xFFFF_FFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array;
  w : int array; (* the 64-word message schedule *)
  block : Bytes.t; (* a partial block, carried between updates *)
  mutable block_len : int;
  mutable total_len : int;
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
         0x1f83d9ab; 0x5be0cd19 |];
    w = Array.make 64 0;
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0;
  }

let word s off = (String.get_uint16_be s off lsl 16) lor String.get_uint16_be s (off + 2)

(* Every index below is a loop counter in [0, 63] (less a constant
   that keeps it there) into the 64-word [w] or [k]. *)
let process_block ctx s off =
  let w = ctx.w and h = ctx.h in
  for i = 0 to 15 do
    Array.unsafe_set w i (word s (off + (i * 4)))
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ee = !e lor (!e lsl 32) in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let temp1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let aa = !a lor (!a lsl 32) in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + temp1) land mask;
    d := !c;
    c := !b;
    b := !a;
    a := (temp1 + s0 + maj) land mask
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask;
  h.(5) <- (h.(5) + !f) land mask;
  h.(6) <- (h.(6) + !g) land mask;
  h.(7) <- (h.(7) + !hh) land mask

(* [process_block] only reads the block, so the carried bytes can be
   viewed as a string while it runs. *)
let process_carried ctx = process_block ctx (Bytes.unsafe_to_string ctx.block) 0

let update ctx s =
  let len = String.length s in
  ctx.total_len <- ctx.total_len + len;
  let pos = ref 0 in
  (* Fill a partial block first. *)
  if ctx.block_len > 0 then begin
    let take = min (64 - ctx.block_len) len in
    Bytes.blit_string s 0 ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := take;
    if ctx.block_len = 64 then begin
      process_carried ctx;
      ctx.block_len <- 0
    end
  end;
  (* Whole blocks straight from the string. *)
  while len - !pos >= 64 do
    process_block ctx s !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.block 0 (len - !pos);
    ctx.block_len <- len - !pos
  end

let finalize ctx =
  (* Append 0x80 then zero padding then the 64-bit length in bits. *)
  Bytes.set ctx.block ctx.block_len '\x80';
  ctx.block_len <- ctx.block_len + 1;
  if ctx.block_len > 56 then begin
    Bytes.fill ctx.block ctx.block_len (64 - ctx.block_len) '\x00';
    process_carried ctx;
    ctx.block_len <- 0
  end;
  Bytes.fill ctx.block ctx.block_len (56 - ctx.block_len) '\x00';
  Bytes.set_int64_be ctx.block 56 (Int64.mul (Int64.of_int ctx.total_len) 8L);
  process_carried ctx;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let hex s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[c lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[c land 15]
  done;
  Bytes.unsafe_to_string out

let digest_hex s = hex (digest s)
