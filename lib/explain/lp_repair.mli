(** L1 timestamp repair over a simple temporal network (Formulas 2–4).

    Given a tuple [t] and interval conditions [Phi], find [t'] satisfying
    every condition while minimising [sum_i |t(Ei) - t'(Ei)|] over the real
    events — artificial [AND^s]/[AND^e] events move for free (they are
    bookkeeping, not data). The u/v substitution of Formula 4 turns the
    absolute values into a linear objective; the LP relaxation is solved by
    the exact simplex and, because the constraint matrix is a difference
    system (totally unimodular), the optimum is integral. Should a
    fractional optimum ever appear, the branch-and-bound {!Lp.Ilp} is used
    as a safety net, keeping the result exact unconditionally. *)

type t = {
  repaired : Events.Tuple.t;
      (** all events of the network, artificial included, at feasible
          non-negative timestamps *)
  cost : int;  (** Delta(t, repaired) over real events (Formula 1) *)
  integral_relaxation : bool;
      (** whether the LP relaxation was already integral (always true in
          our experiments; recorded for the integrality ablation) *)
}

val repair :
  ?weights:(Events.Event.t -> int) ->
  ?bounds:(Events.Event.t -> int option) ->
  ?cutoff:int ->
  Events.Tuple.t ->
  Tcn.Condition.interval list ->
  t option
(** [None] when the conditions are unsatisfiable. The input tuple must bind
    every event occurring in the conditions (extend it first via
    {!Tcn.Encode.extend} when artificial events occur). [weights] prices
    each real event's per-unit modification (default 1; weight 0 = free to
    move, e.g. an untrusted source; artificial events are always free).
    [bounds] caps how far each real event may move (plausibility: a repair
    shifting a timestamp across days is no explanation); [None] (the
    default everywhere) leaves it unbounded, and too-tight bounds make the
    repair infeasible ([None] result). [cutoff] is an incumbent: only
    repairs of cost strictly below it are wanted, so any instance whose
    optimum is [>= cutoff] returns [None] (implemented as a budget
    constraint of [cutoff - 1]; costs are integral). No caller in the
    library passes it, and {!Bnb}'s solver type has no room for it: the
    budget row is dense, breaks the difference system's total
    unimodularity (it is where the tableau takes fractions), and a search
    that prices its leaves from their closure reads its winner's repair
    off the closure and solves no LP. It stays because the repository's benchmark
    forwards it from its own repair wrapper, and the test "simplex pin:
    weighted, bounded and cutoff repairs" reads it.
    @raise Not_found if an event of the conditions is unbound.
    @raise Invalid_argument on a negative weight or bound. *)
