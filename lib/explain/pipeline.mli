(** The paper's system structure (Figure 3), as one entry point.

    Input: an event pattern query and a tuple the user expected among the
    answers. The pipeline (1) encodes the query as a complex temporal
    network, (2) checks pattern consistency (Algorithm 1) — an inconsistent
    query is itself the explanation — and (3) otherwise produces the
    timestamp modification explanation (Algorithm 2). On top of the paper's
    figure, the pipeline also reports when the tuple actually matches
    (nothing to explain) and can fall back to the query-modification
    explanation when the data repair is implausibly large. *)

type outcome =
  | Already_answer
      (** the tuple matches; whatever is missing, it is not this tuple *)
  | Inconsistent_query of Consistency.report
      (** pattern consistency explanation: no tuple can ever match *)
  | Modify_timestamps of Modification.result
      (** timestamp modification explanation *)
  | Modify_query of Query_repair.t
      (** the data repair exceeded [max_cost]; relaxing the query's windows
          is the cheaper story (only produced when [max_cost] is given) *)
  | No_explanation
      (** data repair over budget and the query unfixable by windows *)

val pp_outcome : Format.formatter -> outcome -> unit

type prepared
(** A query prepared for many tuples: the Pruned consistency report
    (Algorithm 1) and the {!Modification.prepared} query (validation, the
    encoding (Φ, Γ), the required events and the branch-and-bound setup
    with Φ closed). Each part is computed the first time a call needs it,
    at the point where an uncached call computes it, so the first call
    does the work, bumps the counters and emits the trace events of an
    uncached call in the same order; later calls skip the consistency
    check, the encoding and Φ's pushes, and with them their
    [consistency.*] and [stn_inc.pushes] counts. Results are exactly
    those of an uncached call. A prepared value belongs to the domain
    that forces it: do not use one from two domains at once. *)

val prepare : Pattern.Ast.t list -> prepared
(** Validates the patterns and defers everything else (see {!prepared}).
    @raise Invalid_argument on invalid patterns. *)

val explain_prepared :
  ?strategy:Modification.strategy ->
  ?solver:Modification.solver ->
  ?max_cost:int ->
  prepared ->
  Events.Tuple.t ->
  outcome
(** Figure 3 on one tuple against a prepared query. The [Full] strategy
    (the default) runs the branch-and-bound search; the flat sweep is
    reached only through {!Modification}'s [~engine:Flat]. [solver]
    (default [Lp]) is forwarded from {!explain}: no production caller
    sets it, and it stays because the repository's benchmark checks the
    simplex's optimum against the min-cost flow's through it. With the
    pipeline's unit weights neither is reached unless a leaf has more
    than {!Leaf.max_active} active events: the repair is the earliest
    optimal one, read off the winning leaf's closure (see
    {!Modification}).
    @raise Numeric.Checked.Overflow as {!explain} does. *)

val capacity : int
(** 8: how many prepared queries {!explain} keeps per domain. *)

val explain :
  ?strategy:Modification.strategy ->
  ?solver:Modification.solver ->
  ?max_cost:int ->
  Pattern.Ast.t list ->
  Events.Tuple.t ->
  outcome
(** Run Figure 3 on one expected-but-missing tuple. The query is prepared
    once and kept in a per-domain most-recently-used list of {!capacity}
    entries, keyed by the {e physical identity} of the pattern-set value:
    pass the same list for every tuple of one query (a structurally equal
    copy is a different key, prepared afresh). Each miss bumps
    [pipeline.prepares].
    @raise Invalid_argument on invalid patterns or a tuple missing pattern
    events.
    @raise Numeric.Checked.Overflow when the tuple's timestamps are too
    far apart for exact arithmetic: together with 0 they span more than
    {!Events.Time.max_span}, or a repair cost or a simplex pivot leaves
    the native integer range. It is raised rather than wrapped into a
    wrong explanation. *)
