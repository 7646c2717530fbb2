(* Reference copy of [Nk_crypto.Sha256] as it was before its words
   moved from boxed [int32]s to native ints. The differential property
   in [Test_crypto] runs it side by side with the current module. The
   hex helpers are left out; the code is otherwise unchanged. *)

let k =
  [| 0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
     0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
     0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
     0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
     0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
     0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
     0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
     0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
     0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
     0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
     0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l |]

type ctx = {
  h : int32 array;
  block : Bytes.t; (* 64-byte working block *)
  mutable block_len : int;
  mutable total_len : int64;
}

let init () =
  {
    h =
      [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al; 0x510e527fl; 0x9b05688cl;
         0x1f83d9abl; 0x5be0cd19l |];
    block = Bytes.create 64;
    block_len = 0;
    total_len = 0L;
  }

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let process_block ctx block off =
  let w = Array.make 64 0l in
  for i = 0 to 15 do
    w.(i) <- Bytes.get_int32_be block (off + (i * 4))
  done;
  for i = 16 to 63 do
    let s0 =
      Int32.logxor
        (Int32.logxor (rotr w.(i - 15) 7) (rotr w.(i - 15) 18))
        (Int32.shift_right_logical w.(i - 15) 3)
    in
    let s1 =
      Int32.logxor
        (Int32.logxor (rotr w.(i - 2) 17) (rotr w.(i - 2) 19))
        (Int32.shift_right_logical w.(i - 2) 10)
    in
    w.(i) <- Int32.add (Int32.add w.(i - 16) s0) (Int32.add w.(i - 7) s1)
  done;
  let a = ref ctx.h.(0)
  and b = ref ctx.h.(1)
  and c = ref ctx.h.(2)
  and d = ref ctx.h.(3)
  and e = ref ctx.h.(4)
  and f = ref ctx.h.(5)
  and g = ref ctx.h.(6)
  and hh = ref ctx.h.(7) in
  for i = 0 to 63 do
    let s1 = Int32.logxor (Int32.logxor (rotr !e 6) (rotr !e 11)) (rotr !e 25) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let temp1 = Int32.add (Int32.add (Int32.add !hh s1) (Int32.add ch k.(i))) w.(i) in
    let s0 = Int32.logxor (Int32.logxor (rotr !a 2) (rotr !a 13)) (rotr !a 22) in
    let maj =
      Int32.logxor
        (Int32.logxor (Int32.logand !a !b) (Int32.logand !a !c))
        (Int32.logand !b !c)
    in
    let temp2 = Int32.add s0 maj in
    hh := !g;
    g := !f;
    f := !e;
    e := Int32.add !d temp1;
    d := !c;
    c := !b;
    b := !a;
    a := Int32.add temp1 temp2
  done;
  ctx.h.(0) <- Int32.add ctx.h.(0) !a;
  ctx.h.(1) <- Int32.add ctx.h.(1) !b;
  ctx.h.(2) <- Int32.add ctx.h.(2) !c;
  ctx.h.(3) <- Int32.add ctx.h.(3) !d;
  ctx.h.(4) <- Int32.add ctx.h.(4) !e;
  ctx.h.(5) <- Int32.add ctx.h.(5) !f;
  ctx.h.(6) <- Int32.add ctx.h.(6) !g;
  ctx.h.(7) <- Int32.add ctx.h.(7) !hh

let update ctx s =
  let len = String.length s in
  ctx.total_len <- Int64.add ctx.total_len (Int64.of_int len);
  let pos = ref 0 in
  (* Fill a partial block first. *)
  if ctx.block_len > 0 then begin
    let need = 64 - ctx.block_len in
    let take = min need len in
    Bytes.blit_string s 0 ctx.block ctx.block_len take;
    ctx.block_len <- ctx.block_len + take;
    pos := take;
    if ctx.block_len = 64 then begin
      process_block ctx ctx.block 0;
      ctx.block_len <- 0
    end
  end;
  while len - !pos >= 64 do
    Bytes.blit_string s !pos ctx.block 0 64;
    process_block ctx ctx.block 0;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.block 0 (len - !pos);
    ctx.block_len <- len - !pos
  end

let finalize ctx =
  let bitlen = Int64.mul ctx.total_len 8L in
  (* Append 0x80 then zero padding then 64-bit length. *)
  Bytes.set ctx.block ctx.block_len '\x80';
  ctx.block_len <- ctx.block_len + 1;
  if ctx.block_len > 56 then begin
    Bytes.fill ctx.block ctx.block_len (64 - ctx.block_len) '\x00';
    process_block ctx ctx.block 0;
    ctx.block_len <- 0
  end;
  Bytes.fill ctx.block ctx.block_len (56 - ctx.block_len) '\x00';
  Bytes.set_int64_be ctx.block 56 bitlen;
  process_block ctx ctx.block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) ctx.h.(i)
  done;
  Bytes.to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx
