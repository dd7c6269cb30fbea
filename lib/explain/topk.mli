(** Top-k timestamp modification explanations and blame summaries.

    The paper returns the single minimum-change explanation and notes
    (citing provenance-summary work) that candidate explanations should be
    ranked. This module materialises that ranking: the k cheapest
    {e distinct} repairs across the binding space — useful when several
    near-minimal explanations exist and a human picks the plausible one —
    and a per-event blame summary saying how often each event is modified
    across candidate explanations (events blamed in every candidate are
    almost certainly the imprecise ones). *)

type candidate = {
  repaired : Events.Tuple.t;
  cost : int;
  binding : Tcn.Condition.interval list;
      (** the grounded binding this repair came from *)
}

type blame = {
  event : Events.Event.t;
  frequency : float;  (** fraction of candidates modifying this event *)
  mean_shift : float;  (** average |modification| over those candidates *)
}

type t = {
  candidates : candidate list;  (** cheapest first, pairwise distinct repairs *)
  blames : blame list;  (** most frequently blamed first *)
  bindings_tried : int;
      (** consistent full bindings actually solved; inconsistent subtrees
          are pruned by the incremental closure without enumeration *)
}

val explain :
  ?k:int -> Pattern.Ast.t list -> Events.Tuple.t -> t option
(** [explain ~k patterns tuple] ranks up to [k] (default 3) distinct
    repairs over all bindings. [None] iff no binding is feasible
    (inconsistent query). The head candidate equals Algorithm 2's Full
    optimum. @raise Invalid_argument like {!Modification.explain}.
    @raise Numeric.Checked.Overflow like {!Pipeline.explain}, when the
    tuple's timestamps are too far apart for exact arithmetic. *)
