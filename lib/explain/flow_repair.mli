(** L1 timestamp repair via the min-cost-circulation dual.

    Same problem as {!Lp_repair} (minimum L1 modification under a simple
    temporal network) solved through a different exact route: the LP dual of
    the repair problem is a min-cost circulation on the constraint graph —
    each difference constraint becomes an arc with cost equal to its slack
    at the input tuple, and each event may absorb imbalance up to its weight
    through a super node. The optimal primal is read off the shortest-path
    potentials of the optimal residual network (complementary slackness).

    This is the repository's independent witness for {!Lp_repair}: property
    tests assert both report identical optima. It is also about twice as
    fast (integer arithmetic, no tableau), which the ablation bench
    quantifies. *)

val repair :
  ?weights:(Events.Event.t -> int) ->
  ?bounds:(Events.Event.t -> int option) ->
  ?cutoff:int ->
  Events.Tuple.t ->
  Tcn.Condition.interval list ->
  Lp_repair.t option
(** Same contract as {!Lp_repair.repair}, weights and incumbent [cutoff]
    included (the [integral_relaxation] field is always [true]: flows are
    integral by construction). *)
