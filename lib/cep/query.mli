(** Event pattern query evaluation over traces.

    The paper's system sits on a complex event processing engine: a query
    (pattern set) is evaluated over a log of tuples and returns the matching
    ones. This module is that engine's batch side, plus the answer-quality
    metrics of Section 6.4 used to score explanations by the accuracy of
    query answers after repair. *)

val answers : Pattern.Ast.t list -> Events.Trace.t -> string list
(** Identifiers of the tuples matching every pattern of the query, in
    increasing order. *)

val non_answers : Pattern.Ast.t list -> Events.Trace.t -> string list
(** Identifiers of the tuples that do {e not} match — the candidates for
    why-not explanations. *)

type accuracy = { precision : float; recall : float; f_measure : float }

val accuracy : truth:string list -> found:string list -> accuracy
(** Precision/recall/f-measure of [found] against [truth] (Section 6.4).
    Conventions: empty [found] has precision 1; empty [truth] has recall 1. *)

val pp_accuracy : Format.formatter -> accuracy -> unit

val explain_trace :
  ?strategy:Explain.Modification.strategy ->
  ?max_cost:int ->
  Pattern.Ast.t list ->
  Events.Trace.t ->
  Events.Trace.t
(** Repair every non-answer of the trace with the timestamp modification
    explanation (answers pass through unchanged). Tuples that cannot be
    repaired (inconsistent query or missing events) also pass through
    unchanged, as do tuples whose minimal repair costs more than
    [max_cost] — per the paper, an explanation that must "significantly
    modify the timestamps on a great many of events" does not apply. This
    is the "query after explanation" pipeline of Figure 12. Each repair
    is {!Explain.Modification}'s at its defaults but for [strategy]
    (default [Full]): the branch-and-bound search, solved by the
    simplex. *)
