(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the reproduction draws from an explicit
    [Prng.t] so that simulations are replayable from a seed. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument]
    if [bound <= 0]. *)

val bytes : t -> int -> string
(** [bytes t n] is [n] bytes, each the low byte of one draw: the bytes
    [n] successive [int t 256] calls give, leaving [t] in the same
    state. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val weighted : t -> ('a -> float) -> 'a list -> 'a option
(** [weighted t weight items] picks an item with probability
    proportional to [weight item], taking exactly one {!float} draw;
    [None], and no draw, for an empty list. Weights are read once each,
    in list order. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
