(** Deterministic pseudo-random number generator (splitmix64).

    Every experiment in the repository must be reproducible run-to-run, so
    nothing uses the global [Random] state; each workload owns a [Prng.t]
    seeded explicitly. Splitmix64 is small, fast, and passes BigCrush-level
    statistical tests for this use (workload synthesis, fault injection,
    binding sampling). *)

type t

val create : int -> t
(** [create seed] is a fresh generator; equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy continuing from the current state. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [lo > hi]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
val coin : t -> float -> bool
(** [coin g p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. @raise Invalid_argument on empty. *)
