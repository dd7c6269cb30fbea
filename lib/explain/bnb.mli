(** Branch-and-bound binding search for the exact [Full] strategy.

    The flat sweep of {!Modification} enumerates [Aleph_Gamma] (the full
    cartesian product of binding choices), paying an O(n^3) Floyd–Warshall
    closure plus an LP/flow solve per binding. This engine traverses the
    binding tree instead — one level per binding condition, one child per
    {!Tcn.Bindings.choices} element — over a single {!Tcn.Stn_inc} network
    maintained by push/pop, so shared binding prefixes share their closure
    work (O(n^2) per edge instead of O(n^3) per leaf).

    At every node an admissible lower bound on the repair cost of {e any}
    leaf below it is read off the incremental closure, over the events
    grounded on the current path (they appear in the base interval
    conditions or in a pushed binding choice, so they are constrained in
    every completion). It is the larger of two sums. The window sum: each
    grounded event must move at least the L1 distance from its observed
    timestamp to its closure window, at its weight. The pair matching:
    for grounded events i and j, every leaf keeps [t'(j) - t'(i)] within
    the closure's distances ({!Tcn.Stn_inc.distance}), so the two must
    move by at least [viol(i,j) = max(0, δ - d(i,j), -d(j,i) - δ)] in
    all, where [δ = t(j) - t(i)], at a cost of at least
    [min(w_i, w_j) * viol(i,j)]; a greedy matching of violated pairs,
    heaviest first and each event in at most one pair (a pair with the
    origin is a window term), sums to a bound. The closure only tightens
    along a root-to-leaf path and every leaf solution is feasible for
    every prefix closure, hence admissibility. Subtrees whose bound
    reaches the incumbent are pruned; so are subtrees in which some
    event's minimal forced move to its window already exceeds its
    plausibility bound.

    Each leaf is priced at the optimum of the plain repair LP, and becomes
    the incumbent only when it is strictly cheaper than the incumbent. When
    every priced event weighs 1 and none has a plausibility bound (every
    production caller), the price is read off the leaf's closure: the
    {e heaviest} matching of the same violated pairs, in which the origin
    takes any number of partners. That is exact, not a bound: the LP's dual
    is a min-cost circulation, and on the closure an optimal circulation is
    such a matching (docs/PERFORMANCE.md, "Exact leaf prices"; the greedy
    matching of the bound is a lower bound on it). The matching runs over
    the leaf's active events (those with a violated pair) by a DP over
    their subsets; a leaf with more than 12 active events, and every leaf
    of a weighted or bounded search, solves its LP instead. When the
    search ends, the repair LP is solved once, for the winning leaf, with
    [repair], and its cost must equal the price. Once a leaf repairs at
    cost 0, the rest of its top-level subtree is pushed and pruned by the
    bound, and every later top-level subtree is skipped.

    The search returns {e exactly} what the flat sweep returns — the first
    binding (in {!Tcn.Bindings.full} enumeration order) attaining the
    minimum repair cost, solved by the same deterministic solver — and the
    property tests assert bit-identical tuples. It is one serial search on
    the calling domain, so its statistics and [bnb.*] counters are as
    deterministic as its result. *)

type stats = {
  nodes_expanded : int;
      (** nodes branched upon: consistent pushes that survived the bound
          checks and had their subtree explored *)
  leaves_solved : int;
      (** full bindings priced: by their closure's matching, or by an
          LP/flow solve where that does not apply. The winner's one solve
          at the end of a priced search is not a leaf. *)
  pruned_bound : int;  (** subtrees cut because lower bound >= incumbent *)
  pruned_inconsistent : int;  (** pushes refused by the incremental closure *)
  pruned_plausibility : int;
      (** subtrees cut because a forced move exceeds its plausibility bound *)
}

type outcome = {
  best : (Events.Tuple.t * int) option;
      (** repaired extended tuple and optimal cost; [None] when no binding
          is consistent and feasible *)
  stats : stats;
}

type prepared
(** The part of a search that depends only on the network, not on the
    tuple, the weights or the bounds: the binding choice lists, the event
    universe and its index, and the base interval conditions Φ closed in
    one {!Tcn.Stn_inc}. Every search starts from its own
    {!Tcn.Stn_inc.copy} of that closure instead of pushing Φ again.

    The closure is built at most once: by the first search, inside that
    search's [bnb.search] span and in its calling domain, or by {!close}.
    So the first search on a fresh [prepared] pushes, counts and traces
    exactly like {!search}, and later ones skip Φ's pushes. After that the
    base is never mutated. A [prepared] value may be searched from several
    domains at once only after it is closed. *)

val prepare : Tcn.Encode.set -> prepared
(** The tuple-independent setup; pushes nothing (see {!prepared}). *)

val close : prepared -> unit
(** Close Φ now if no search has yet; idempotent. Call it before sharing
    the value across domains. *)

val search_prepared :
  repair:
    (Events.Tuple.t -> Tcn.Condition.interval list -> Lp_repair.t option) ->
  ?weights:(Events.Event.t -> int) ->
  ?bounds:(Events.Event.t -> int option) ->
  prepared ->
  Events.Tuple.t ->
  outcome
(** {!search} on a prepared network: the same outcome and statistics, and
    the same solves and pivots. Its scratch is per search: the [prepared]
    value is only read. *)

val leaf_price :
  Tcn.Encode.set -> Events.Tuple.t -> Tcn.Condition.interval list -> int option
(** [leaf_price net extended binding] is what a search with unit weights
    and no plausibility bounds charges the leaf whose binding choices are
    [binding] (one element of {!Tcn.Bindings.full}[ net.set_bindings]):
    the heaviest matching of its violated pairs over its closure. It is
    the optimum of the repair LP of [binding @ net.set_intervals]
    (docs/PERFORMANCE.md, "Exact leaf prices"). [None] when that closure
    is inconsistent or has more than 12 active events, where the search
    solves the LP instead. [extended] is as for {!search}.
    @raise Numeric.Checked.Overflow as {!search} does. *)

val search :
  ?domains:int ->
  repair:
    (Events.Tuple.t -> Tcn.Condition.interval list -> Lp_repair.t option) ->
  ?weights:(Events.Event.t -> int) ->
  ?bounds:(Events.Event.t -> int option) ->
  Tcn.Encode.set ->
  Events.Tuple.t ->
  outcome
(** [search ~repair net extended] explores the binding tree of
    [net.set_bindings]. [extended] must bind every event of the network
    (artificial included — pass the result of {!Tcn.Encode.extend}).
    [repair] is the solver, typically {!Lp_repair.repair} or
    {!Flow_repair.repair} partially applied, of the same plain model the
    flat sweep solves: it solves the winning leaf once (and every leaf
    that is not priced from its closure). [weights] and [bounds] must be
    the same functions given to the solver — the lower bound and the
    exact prices use them, and admissibility and exactness depend on the
    agreement. Uncached: [prepare], then {!search_prepared}.

    [domains] must be 1 (the default): the search is serial, and the
    option stays only because the repository's benchmark passes
    [~domains:1].
    @raise Invalid_argument on [domains <> 1], a negative weight or a
    negative bound.
    @raise Numeric.Checked.Overflow when the tuple's timestamps, with 0,
    span {!Tcn.Weight.inf} or more (the closure's "unbounded": a gap that
    wide would read as a violated constraint that does not exist), when
    a bound or a price leaves the native integer range, or when the
    solver overflows. *)
