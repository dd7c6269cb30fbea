(** The exact price and the earliest optimal repair of one leaf, read off
    its closure.

    A leaf is a fully bound network: the base conditions Φ plus one
    binding choice per binding condition, closed into shortest-path
    distances [d] over its events and the origin (pinned at 0). When every
    priced event weighs 1 and none has a plausibility bound, its repair LP
    needs no simplex:

    - {e Price.} The optimum is the weight of a heaviest matching of the
      violated pairs, in which the origin takes any number of partners
      (docs/PERFORMANCE.md, "Exact leaf prices"). A DP over the subsets of
      the active events (those with a violated pair) finds it.
    - {e Repair.} Given such a matching, a repair is optimal iff it keeps
      every closure row and: each matched pair's gap closes exactly to its
      bound, each of the two moving towards the other; each event matched
      with the origin sits at the nearer end of its window; every other
      priced event keeps its timestamp. These are difference constraints,
      so the optimal repairs form a lattice; {!read} returns its least
      element, the {e earliest optimal repair}, by a shortest-path closure
      over the active events and the origin (docs/PERFORMANCE.md, "The
      earliest optimal repair"). It depends on the data only, not on the
      event names nor on which heaviest matching was traced.

    Indices are those of the closure: [0 .. origin - 1] for events, and
    [origin] for the origin. *)

val max_active : int
(** 12: the most active events a leaf is priced over. The matching's memo
    has 2^max_active entries; a leaf with more solves its repair LP. *)

val observed : Events.Event.t array -> Events.Tuple.t -> int array
(** [observed ev tuple] is the tuple's timestamp of each [ev.(i)] at index
    [i], and 0 for the origin at index [Array.length ev]. The closure's
    {!Tcn.Weight.inf} means unbounded: a gap that wide would read as the
    violation of a constraint that does not exist.
    @raise Not_found if the tuple misses an event of [ev].
    @raise Numeric.Checked.Overflow when the timestamps, with 0, span
    {!Tcn.Weight.inf} or more. *)

val viol : (int -> int -> int) -> int array -> int -> int -> int
(** [viol dist ts i j] is how far the closure [dist] forces the gap
    [t(j) - t(i)] off its observed value [ts.(j) - ts.(i)]: every repair
    keeps [-dist j i <= t'(j) - t'(i) <= dist i j], so the moves of [i]
    and [j] add up to at least this much. For [i] the origin it is [j]'s
    distance to its closure window. [ts] must come from {!observed}. *)

type t
(** Working state for the leaves of one closure: their violations, the
    matching's memo and the last price. *)

val create : (int -> int -> int) -> int array -> int array -> t
(** [create dist ts priced]: [dist] reads the closure (it may change
    between loads, as a pushed and popped network does), [ts] comes from
    {!observed}, and [priced] lists the events that weigh 1, ascending. *)

val load : t -> (int -> bool) -> unit
(** [load t keep] reads the violations of the events of [priced] that
    satisfy [keep] (the leaf's own: those its conditions mention) from the
    closure as it is now. *)

val size : t -> int
(** The number of loaded events. *)

val event : t -> int -> int
(** [event t a] is the closure index of the [a]-th loaded event. *)

val violation : t -> int -> int -> int
(** [violation t a b], for [a < b], is {!viol} of the [a]-th and [b]-th
    loaded events; [violation t a a] is that of the [a]-th with the
    origin. *)

val price : t -> int option
(** The loaded leaf's exact repair cost, [None] when more than
    {!max_active} events are active. *)

val read : t -> free:(int -> bool) -> int array
(** After [price] returned [Some c], with the closure unchanged: the
    earliest optimal repair, by closure index. The loaded events are
    priced; [free i] marks the other events of the leaf (artificial, or of
    weight 0), each placed at its earliest time given the priced ones.
    Every other event reads [-1] (repairs are non-negative); the origin
    reads 0. Asserts its certificate: every closure row between the
    leaf's events and the origin holds, and the priced events move by [c]
    in all. *)

val repaired : Events.Event.t array -> int array -> Events.Tuple.t
(** [repaired ev x] binds each event [ev.(i)] of the leaf to [x.(i)], from
    {!read}; the events off the leaf (reading [-1]) stay unbound. *)
