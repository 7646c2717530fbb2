(* Interned property names ("atoms"). Every property name that crosses
   the script engine is mapped to a small dense integer exactly once;
   after that, object layout, shape transitions and inline caches
   compare ints instead of hashing strings. The table is process-wide
   (like the compiled-program cache): the same source name always maps
   to the same atom, so compiled code from one stage can probe objects
   built by another.

   Interning is append-only — atoms are never freed. The population is
   bounded by the set of distinct property names in loaded scripts plus
   the vocabulary surface, which is small; a runaway script inventing
   names dynamically pays its own fuel/heap for the strings first. *)

type t = int

let table : (string, int) Hashtbl.t = Hashtbl.create 256

let names : string array ref = ref (Array.make 256 "")

let next = ref 0

let intern (s : string) : t =
  match Hashtbl.find_opt table s with
  | Some a -> a
  | None ->
    let a = !next in
    incr next;
    if a >= Array.length !names then begin
      let grown = Array.make (2 * Array.length !names) "" in
      Array.blit !names 0 grown 0 a;
      names := grown
    end;
    !names.(a) <- s;
    Hashtbl.add table s a;
    a

let to_string (a : t) : string = !names.(a)

(* Pre-interned names for the hottest fixed lookups. *)
let length = intern "length"
