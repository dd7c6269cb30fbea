(** Simple temporal networks (Dechter, Meiri, Pearl 1991; Definition 6).

    An STN is a conjunction of interval conditions over a set of events. Its
    consistency is decided in O(n^3) by computing all-pairs shortest paths on
    the distance graph: condition [phi(i,j):\[a,b\]] contributes the arcs
    [i -> j] with weight [b] and [j -> i] with weight [-a]; the network is
    consistent iff the graph has no negative cycle. The shortest-path matrix
    is also the {e minimal network} (tightest equivalent bounds), from which
    a concrete feasible assignment is read off. *)

type t

val of_intervals :
  ?events:Events.Event.t list ->
  ?absolute:(Events.Event.t * Events.Time.t * Events.Time.t) list ->
  Condition.interval list ->
  t
(** Build the network over the union of the mentioned events and [events]
    (extra isolated events are allowed and stay unconstrained).
    [absolute] adds per-event absolute-time bounds [lo <= t(e) <= hi]
    (anchored on the network's internal origin) — used e.g. to express
    plausibility bounds around observed timestamps. *)

val events : t -> Events.Event.t array
(** The network's events in their internal index order. *)

val consistent : t -> bool
(** No negative cycle in the distance graph (Floyd–Warshall, cached). *)

val distance : t -> Events.Event.t -> Events.Event.t -> Events.Time.t option
(** Minimal-network entry: the tightest upper bound on
    [t(dst) - t(src)], [None] if unbounded.
    @raise Invalid_argument if the network is inconsistent or an event is
    unknown. *)

val distance_at : t -> int -> int -> int
(** [distance_at t i j] is the same entry by the indices of {!events};
    index [n = Array.length (events t)] is the origin, pinned at 0, and
    {!Weight.inf} means unbounded, as in {!Stn_inc.distance}.
    @raise Invalid_argument if the network is inconsistent or an index is
    out of range. *)

val distance_matrix : t -> Events.Event.t array -> int array array
(** [distance_matrix t evs] projects the minimal network onto [evs]:
    entry [(i, j)] is the tightest upper bound on
    [t(evs.(j)) - t(evs.(i))], with {!Weight.inf} for "unbounded". Events
    not in the network are treated as unconstrained (every bound
    [Weight.inf], diagonal 0) rather than rejected, so callers can project
    onto a fixed event universe. Because minimal STNs are decomposable, a
    partial assignment extends to a full solution iff every assigned pair
    satisfies these bounds — the basis for the detector's compiled
    feasibility checks. @raise Invalid_argument if [t] is inconsistent. *)

val solution : t -> Events.Tuple.t option
(** A feasible assignment with non-negative timestamps, [None] if
    inconsistent. All events (including isolated ones) are bound. *)

val solution_near : t -> Events.Tuple.t -> Events.Tuple.t option
(** Like {!solution} but anchored close to a reference tuple: the returned
    assignment satisfies the network and is pulled toward the reference
    per-event (a cheap heuristic seed, NOT the L1 optimum — Algorithm 2's
    LP gives that). Events missing from the reference are placed freely. *)
