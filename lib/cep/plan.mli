(** Compiled evaluation plans for the streaming detector.

    A plan is the query's detection logic precomputed once at
    {!Compile.plan} time, so the per-instance work of {!Detector.feed}
    drops from "re-derive everything from the AST and run a full STN
    consistency check per candidate extension" to table lookups and
    O(assigned) window-distance arithmetic:

    - {e transition tables}: for each instance type, the pattern events
      (including REPEAT aliases) an incoming instance may fill, in the
      exact order the naive engine tries them, with the alias-chain
      prerequisite resolved to an event index;
    - {e binding distance matrices}: one minimal-network (all-pairs
      shortest path) matrix over the real pattern events per consistent
      binding of the encoded TCN. Minimal STNs are decomposable
      (Dechter–Meiri–Pearl), so a partial assignment extends to a full
      match under {e some} binding iff every assigned pair fits one
      matrix — exactly the predicate the naive engine evaluates with
      [Consistency.check_network ~pinned], for at most
      [O(assigned * matrices)] integer comparisons;
    - a {e dense partial store}: the pattern events and instance types
      are numbered once at compile time, so the store works on integers
      alone. A partial holds a bitset of its assigned event indices
      beside its newest-first (index, timestamp, tag) cells; whether a
      target is free and its REPEAT prerequisite met is two bit tests.
      Partials are bucketed in an array indexed by the instance types
      they can still accept (so extension candidates are found without
      scanning the whole buffer), a queue of same-[earliest] buckets
      gives O(evicted) horizon eviction, and an insertion-order queue
      O(evicted) capacity eviction. Evicted partials are tombstoned and
      compacted away amortized O(1). An assignment becomes an
      {!Events.Tuple.t} only when it completes (it is then a match) or
      for a {!field-fallback} check.

    The store replays the naive engine {e bit-identically}: matches,
    match order, tags, live partial counts and both eviction counters are
    equal on any stream (the differential fuzz suite asserts this).
    Window-distance arithmetic sticks to the saturating {!Tcn.Weight}
    operations, mirroring how bounds enter an STN. *)

type target = {
  tgt_index : int;
      (** the pattern event or REPEAT alias to fill, as its index in
          {!field-events} *)
  tgt_prereq : int;
      (** index of the alias with the preceding REPEAT index, which must
          already be assigned ([alias_ready]); [-1] when always ready *)
}

type transition = {
  tr_targets : target list;
      (** every target an instance of this type may fill, in the naive
          engine's trial order *)
  tr_fresh : target list;
      (** the subset that can start a new partial (prerequisite-free),
          in the same order *)
}

type t = {
  events : Events.Event.t array;
      (** real pattern events and REPEAT aliases, sorted; a partial's
          assignment is a set of indices into this array, complete when it
          holds all of them *)
  types : Events.Event.t array;
      (** the instance types, sorted; a type's position here is its index
          in [transitions] (and in the store's bucket array), and absent
          types are irrelevant *)
  transitions : transition array;  (** per instance type index *)
  matrices : int array array array;
      (** per consistent binding, deduplicated: [(k).(i).(j)] is the
          tightest upper bound on [t(events.(j)) - t(events.(i))], with
          {!Tcn.Weight.inf} for unbounded *)
  fallback : (Events.Tuple.t -> bool) option;
      (** [Some check] when the binding space was too large to
          materialize ({!Compile.max_matrices}): per-extension
          feasibility falls back to [check] on the extended assignment *)
}

val matrix_count : t -> int

(** {1 The indexed partial store} *)

type store

val create_store : horizon:int -> max_partials:int -> t -> store

val live : store -> int
(** Current number of live (non-evicted) partials. *)

type outcome = {
  out_matches : (Events.Tuple.t * (Events.Event.t * string) list) list;
      (** completed assignments in generation order, tags newest-first.
          With window bounds and a horizon at most
          {!Events.Time.max_span}, each one matches the query
          ({!Pattern.Matcher.matches_set}); docs/DETECTION.md gives the
          proof, and test/test_plan.ml checks it without a filter *)
  out_horizon_evicted : int;
  out_capacity_evicted : int;
  out_irrelevant : bool;
      (** the instance type fills no pattern event (horizon eviction
          still ran) *)
}

val type_index : Events.Event.t array -> string -> pos:int -> stop:int -> int
(** [type_index types s ~pos ~stop] is the index in the sorted [types]
    (a plan's {!field-types}) of the event name [s.[pos] .. s.[stop - 1]],
    or [-1] when it is not there. A binary search that compares in place,
    so it allocates nothing. *)

val step_type : store -> ty:int -> timestamp:Events.Time.t -> tag:string ->
  outcome
(** Advance the store by one instance of type index [ty] ({!type_index};
    [-1] for an irrelevant type, whose [tag] is never read). Timestamps
    must be fed non-decreasing (the caller — {!Detector.feed} — enforces
    this). An irrelevant instance that evicts nothing allocates nothing. *)

val step : store -> event:Events.Event.t -> timestamp:Events.Time.t ->
  tag:string -> outcome
(** {!step_type} on the {!type_index} of [event]. *)
