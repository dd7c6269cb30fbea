(** Incremental simple temporal networks with backtracking.

    {!Stn} recomputes an O(n^3) Floyd–Warshall closure from scratch; this
    engine maintains the closure under single-constraint additions in
    O(n^2) each and supports exact undo — the workhorse of the [Pruned]
    depth-first consistency search (Algorithm 1 with prefix pruning), where
    thousands of near-identical networks differ by a handful of binding
    choices.

    Standard incremental-closure argument: with the matrix a valid
    shortest-path closure, a new arc (u,v,w) creates a negative cycle iff
    [d(v,u) + w < 0]; otherwise any shortest path uses the new arc at most
    once and [d'(x,y) = min(d(x,y), d(x,u) + w + d(v,y))] restores the
    closure. *)

type t

val create : Events.Event.t list -> t
(** Network over a fixed event universe (all events must be known up
    front), initially unconstrained except for the implicit non-negative
    domain. *)

val copy : t -> t
(** An independent network with the same closure, stack and depth: pushes
    and pops on either leave the other's distances unchanged. It costs one
    copy of the (n+1)^2 matrix, against O(n^2) per re-pushed condition, so
    a search that starts from a fixed base closes the base once and copies
    it (see {!Explain.Bnb.prepare}). Emits no trace event and counts no
    push. *)

val consistent : t -> bool

val push : t -> Condition.interval -> bool
(** Add an interval condition; returns the consistency of the extended
    network. Every push — including a failing one — must be matched by a
    {!pop}. @raise Invalid_argument if the network is already inconsistent
    (pop first) or the condition mentions an unknown event. *)

val pop : t -> unit
(** Undo the most recent {!push} exactly. @raise Invalid_argument if there
    is nothing to undo. *)

val depth : t -> int
(** Number of pushes not yet popped. *)

val events : t -> Events.Event.t array
(** The fixed event universe in internal index order. *)

val distance : t -> int -> int -> int
(** [distance t i j] — the current closure's shortest-path distance from
    event [i] to event [j], by their indices in {!events}; index
    [n = Array.length (events t)] is the origin, pinned at time 0. Every
    feasible assignment has [t(j) - t(i) <= distance t i j] ({!Weight.inf}
    = unbounded), the bounds are tight (minimal network), and they only
    shrink under further pushes. The origin's row and column are each
    event's window: [-distance t i n <= t(i) <= distance t n i]. The lower
    bound of {!Explain.Bnb} reads its window and pair terms here. O(1).
    @raise Invalid_argument if the network is inconsistent or an index is
    out of range. *)

val solution : t -> Events.Tuple.t option
(** A feasible non-negative assignment for the currently-pushed conditions
    ([None] if inconsistent). *)
