(** Streaming pattern detection over an unkeyed event stream.

    Unlike {!Stream} (which groups instances into tuples by an external
    key), the detector consumes a single interleaved stream of event
    instances and finds {e every} combination of instances — one per
    pattern event — that matches the query, in the skip-till-any-match
    style of SASE-like CEP engines. Partial matches are kept in a buffer
    and pruned by:

    - the time horizon: once the stream has advanced past [horizon] time
      units after a partial's earliest instance, the partial can never
      satisfy the root window and is dropped;
    - exact feasibility: a partial is kept only if its observed timestamps
      can be completed into a full match (a pinned consistency check on the
      query's temporal network, Algorithm 1 with prefix pruning);
    - a hard capacity bound (oldest partials evicted first).

    Emitted matches are exact. The {!Naive} engine confirms each
    completion with {!Pattern.Matcher}. The {!Compiled} engine emits what
    its plan completes: on every input {!template} accepts (window bounds
    and horizon at most {!Events.Time.max_span}) a completion is a match,
    as docs/DETECTION.md proves case by case.

    {b Bounded Kleene.} Queries may use the parser's
    [REPEAT(E, k)] sugar: the pattern then contains alias events
    [E#g_1 .. E#g_k] (one REPEAT group), and incoming instances of type
    [E] fill the aliases of each group in ascending index order (the
    canonical assignment — complete because a group's copies are totally
    ordered by the desugared SEQ, so each matching instance set is
    reported exactly once). *)

type instance = {
  event : Events.Event.t;
  timestamp : Events.Time.t;
  tag : string;  (** opaque payload identifier carried into matches *)
}

type match_ = {
  tuple : Events.Tuple.t;
  tags : (Events.Event.t * string) list;  (** which instance filled each event *)
}

type engine =
  | Naive
      (** enumerate partial matches straight off the AST, with a full
          pinned consistency check ({!Explain.Consistency.check_network})
          per candidate extension — the reference implementation, kept as
          the differential-testing oracle *)
  | Compiled
      (** evaluate on a compiled {!Plan} (see {!Compile.plan} and
          [docs/DETECTION.md]): precomputed transition tables, per-binding
          window-distance matrices and an indexed partial store.
          Bit-identical matches and counters, much cheaper per event. *)

type t

type template
(** A validated, compiled query with no detector state: the parsed
    patterns, the inferred horizon, the encoding and (for the {!Compiled}
    engine) the compiled {!Plan}. The query is encoded once, and the
    consistency pre-check reads the plan's matrices: a plan without
    fallback is consistent iff it kept one. Only the {!Naive} engine and
    a fallback plan run {!Explain.Consistency.check_network}. Immutable after
    construction, so one template may be shared across domains; each
    {!of_template} call derives an independent detector with fresh partial
    state. Sharded serving keeps one detector {e per partition key} — the
    template makes that O(keys) stores instead of O(keys) compilations. *)

val template :
  ?engine:engine ->
  ?horizon:int ->
  ?max_partials:int ->
  Pattern.Ast.t list ->
  template
(** [engine] defaults to [Compiled]. [horizon] defaults to the largest
    root [WITHIN] bound of the query; it must be given when no pattern has
    one. [max_partials] defaults to 4096. @raise Invalid_argument on an
    invalid or window-less unbounded query, an inconsistent query, or a
    horizon that is negative or above {!Events.Time.max_span}. *)

val of_template : template -> t
(** A fresh detector (empty partial buffer, clock reset) sharing the
    template's validated query and compiled plan. *)

val template_horizon : template -> int
(** The horizon the template resolved (given or inferred). *)

val type_index : template -> string -> pos:int -> stop:int -> int
(** The index of the instance type named [s.[pos] .. s.[stop - 1]] among the
    query's instance types, [-1] when the query ignores that type
    ({!Plan.type_index}; it allocates nothing). Every detector of the
    template numbers types this way; see {!feed_type}. *)

val create :
  ?engine:engine -> ?horizon:int -> ?max_partials:int -> Pattern.Ast.t list -> t
(** [of_template (template ...)] — validate and compile the query, then
    build one detector on it. *)

val engine : t -> engine

val feed : t -> instance -> match_ list
(** Advance the stream by one instance (timestamps must be fed in
    non-decreasing order; @raise Invalid_argument otherwise) and return the
    matches completed by it. *)

val feed_type :
  t -> ty:int -> timestamp:Events.Time.t -> tag:string -> match_ list
(** {!feed} of an instance given by its {!type_index} [ty]: the same
    clock check, counters, trace events and matches. On the compiled
    engine [feed] is this call after the type lookup; the naive engine's
    [feed] finds its targets by name, so the reference the plan is
    tested against shares no lookup with it. An instance of an
    irrelevant type ([ty = -1]) only advances the clock and evicts; its
    [tag] is never read. *)

val feed_all : t -> instance list -> match_ list
(** Convenience fold of {!feed}. *)

val partial_count : t -> int
(** Current size of the partial-match buffer. Horizon-expired partials
    are evicted on {e every} feed (even of an irrelevant event type), so
    this never counts partials that can no longer complete. *)

val dropped : t -> int
(** Partials evicted by the capacity bound so far (0 means the result is
    exhaustive). Alias of {!dropped_capacity}. *)

val dropped_capacity : t -> int
(** Partials evicted because the buffer exceeded [max_partials]; these
    are lost matches. *)

val evicted_horizon : t -> int
(** Partials discarded because the stream advanced past the horizon;
    these could never have completed, so they are {e not} lost matches
    and are accounted separately from {!dropped_capacity}. *)
