(** Timestamp modification explanation (Problem 2, Algorithm 2).

    Given a tuple [t] that fails an event pattern query, produce the
    minimum-change tuple [t'] with [t' |= P]: the explanation is that the
    timestamps differing between [t] and [t'] are imprecise. The general
    case iterates over bindings [Phi_k] of [Aleph_Gamma], repairs the simple
    temporal network [Phi ∪ Phi_k] (L1, via LP-relaxation or the flow dual),
    and keeps the cheapest repair:

    - [Full] — all bindings: exact (Pattern(Full) in the paper);
    - [Single] — only the most likely binding of Definition 8
      (Pattern(Single)): approximate in general, provably optimal for AND
      patterns without embedded SEQ (Proposition 8);
    - [Sampled s] — [s] random bindings plus the single binding.

    [weights] generalizes Formula 1 to a weighted L1 cost: per-unit prices
    per event (default 1 everywhere). Use it to encode trust — events from
    a reliable source get high weights and are modified last, a weight of
    0 marks a value as freely adjustable. The [cost] field is then the
    weighted cost. [bounds] caps each event's move (plausibility); a tuple
    whose every binding needs a move beyond its bound gets no explanation
    ([None]) — the "does not apply" verdict of Section 1.1.2. *)

type strategy = Full | Single | Sampled of int

type engine = Flat | Bnb of { domains : int }
(** How the [Full] strategy explores [Aleph_Gamma]. [Flat] is the textbook
    sweep: every binding, one Floyd–Warshall closure plus one solve each.
    [Bnb] is the branch-and-bound search of {!Bnb} over an incremental
    closure with cost-bound pruning — same result, bit-identical, usually
    far fewer solves; [domains > 1] additionally spreads top-level subtrees
    over that many OCaml domains. The default is [Bnb { domains = 1 }].
    [Single] and [Sampled] have no binding tree; they ignore [engine]. *)

type solver = Lp | Flow

type result = {
  repaired : Events.Tuple.t;
      (** the explanation [t']: all real events of the input tuple, with the
          imprecise timestamps modified *)
  cost : int;  (** Delta(t, t') of Formula 1 *)
  bindings_tried : int;
      (** bindings actually solved: [|Aleph_Gamma|] for [Full]+[Flat],
          the (strictly smaller on non-trivial sets) number of leaves the
          branch-and-bound could not prune for [Full]+[Bnb], and the
          number of {e distinct} bindings drawn for [Sampled] *)
  exact : bool;  (** true iff the strategy guarantees the optimum *)
}

type prepared
(** A query prepared for many tuples: the validated pattern set, its
    encoding (Φ, Γ) ({!Tcn.Encode.pattern_set}), the set of real events a
    tuple must bind, and the branch-and-bound setup of {!Bnb.prepare}
    (built by the first [Full]+[Bnb] call, which also closes Φ; see
    {!Bnb.prepared}). A prepared value holds no tuple; every call on it
    returns exactly what the uncached {!explain} returns. Before sharing
    one across domains, {!close} it. *)

val prepare : Pattern.Ast.t list -> prepared
(** Validate and encode once. The postconditions of {!explain} (the
    repaired tuple matches the patterns at the advertised cost) are
    checked on every call of {!explain_prepared}.
    @raise Invalid_argument on invalid patterns. *)

val prepare_network : Tcn.Encode.set -> prepared
(** Prepare an already-encoded network, as {!explain_network} takes it
    (no pattern set, so no postcondition check). *)

val close : prepared -> unit
(** Build the branch-and-bound setup and close Φ now, so that several
    domains may use the value at once. *)

val explain_prepared :
  ?strategy:strategy ->
  ?engine:engine ->
  ?solver:solver ->
  ?seed:int ->
  ?weights:(Events.Event.t -> int) ->
  ?bounds:(Events.Event.t -> int option) ->
  prepared ->
  Events.Tuple.t ->
  result option
(** Algorithm 2 for one tuple on a prepared query: per call, only the
    tuple's own work (the binding check, {!Tcn.Encode.extend}, the binding
    search and its solves).
    @raise Invalid_argument on unbound pattern events. *)

val explain :
  ?strategy:strategy ->
  ?engine:engine ->
  ?solver:solver ->
  ?seed:int ->
  ?weights:(Events.Event.t -> int) ->
  ?bounds:(Events.Event.t -> int option) ->
  Pattern.Ast.t list ->
  Events.Tuple.t ->
  result option
(** [None] when no binding admits a repair — i.e. the pattern set is
    inconsistent (with [Single]/[Sampled], possibly a false negative on a
    consistent but tricky set). The input tuple must bind every pattern
    event. Uncached: {!prepare}, then {!explain_prepared}.
    @raise Invalid_argument on invalid patterns or unbound pattern events. *)

val explain_network :
  ?strategy:strategy ->
  ?engine:engine ->
  ?solver:solver ->
  ?seed:int ->
  ?weights:(Events.Event.t -> int) ->
  ?bounds:(Events.Event.t -> int option) ->
  Tcn.Encode.set ->
  Events.Tuple.t ->
  result option
(** Algorithm 2 on an already-encoded network (the tuple still ranges over
    real events only). Uncached: {!prepare_network}, then
    {!explain_prepared}. *)
