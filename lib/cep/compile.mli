(** Compiling a validated pattern set into a {!Plan} (see ROADMAP item 2:
    automaton-style evaluation in the spirit of CORE / timed-window
    frameworks, with the enumerating detector kept as the oracle).

    Compilation encodes the set once ({!Tcn.Encode.pattern_set}),
    enumerates its bindings, and keeps the minimal-network distance matrix
    of every consistent binding, projected onto the real pattern events
    and deduplicated. When the binding space is larger than
    {!max_matrices}, the plan degrades gracefully: matrices are skipped
    and per-extension feasibility falls back to the naive engine's pinned
    consistency check (still behind the same {!Plan.step} interface). *)

val max_matrices : int
(** Default cap on materialized binding matrices (62, so a partial's
    viable-binding set fits an [int] bitmask). *)

val targets_of : Events.Event.Set.t -> Events.Event.t -> Events.Event.t list
(** The pattern events (the event itself plus every REPEAT alias of that
    base) an instance of the given type may fill, in the engines' shared
    trial order. Shared with the naive engine so both stay in lockstep. *)

val instance_types : Events.Event.Set.t -> Events.Event.t array
(** The instance types of the given pattern events, sorted: each plain
    event and the base type of each REPEAT alias. A type's position is
    its index in {!Plan.field-types}. *)

val plan :
  ?max_matrices:int ->
  ?on_fallback:(unit -> unit) ->
  Pattern.Ast.t list ->
  Plan.t
(** Compile a validated pattern set. [on_fallback] is invoked on every
    fallback feasibility check (the detector counts them in
    [detector.plan.fallback_checks]). Pass [~max_matrices:0] to force the
    fallback path (the differential tests do). @raise Invalid_argument on
    an invalid pattern set (via the encoder). *)

val of_network :
  ?max_matrices:int ->
  ?on_fallback:(unit -> unit) ->
  Tcn.Encode.set ->
  Pattern.Ast.t list ->
  Plan.t
(** {!plan} on the set's encoding ({!Tcn.Encode.pattern_set} of the same
    patterns), so a caller that needs the encoding too encodes once. *)
