type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64's output function of a state. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden;
  mix t.state

(* [n] draws' low bytes, with the state in a local: the bytes [n] calls
   of [int t 256] give, without boxing each draw. *)
let bytes t n =
  let b = Bytes.create n in
  let state = ref t.state in
  for i = 0 to n - 1 do
    state := Int64.add !state golden;
    Bytes.unsafe_set b i (Char.unsafe_chr (Int64.to_int (mix !state) land 0xff))
  done;
  t.state <- !state;
  Bytes.unsafe_to_string b

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound

(* One [float] draw over the summed weights; the last item takes any
   rounding slack. *)
let weighted t weight = function
  | [] -> None
  | items ->
    let weighted = List.map (fun x -> (weight x, x)) items in
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    let roll = float t total in
    let rec choose acc = function
      | [] -> None
      | [ (_, x) ] -> Some x
      | (w, x) :: rest -> if roll < acc +. w then Some x else choose (acc +. w) rest
    in
    choose 0.0 weighted

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
