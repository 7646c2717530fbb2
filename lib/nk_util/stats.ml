type t = {
  mutable samples : float array;
  mutable len : int;
  mutable sorted : float array option;
}

let create () = { samples = [||]; len = 0; sorted = None }

let add t x =
  let cap = Array.length t.samples in
  if t.len = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let ndata = Array.make ncap 0.0 in
    Array.blit t.samples 0 ndata 0 t.len;
    t.samples <- ndata
  end;
  t.samples.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- None

let total t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.samples.(i)
  done;
  !s

let mean t = if t.len = 0 then 0.0 else total t /. float_of_int t.len

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.sub t.samples 0 t.len in
    Array.sort compare a;
    t.sorted <- Some a;
    a

let percentile t p =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let idx = if rank <= 0 then 0 else if rank > n then n - 1 else rank - 1 in
    a.(idx)
  end

let cdf t ~points =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 || points <= 0 then []
  else
    List.init points (fun i ->
        let frac = float_of_int (i + 1) /. float_of_int points in
        let idx = int_of_float (frac *. float_of_int n) - 1 in
        let idx = if idx < 0 then 0 else if idx >= n then n - 1 else idx in
        (a.(idx), frac))

let fraction_at_least t threshold =
  if t.len = 0 then 0.0
  else begin
    let c = ref 0 in
    for i = 0 to t.len - 1 do
      if t.samples.(i) >= threshold then incr c
    done;
    float_of_int !c /. float_of_int t.len
  end
