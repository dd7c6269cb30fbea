(** 3SAT instances and the reduction to pattern consistency (Theorem 2).

    The reduction builds, for a CNF formula, a pattern set that is
    consistent iff the formula is satisfiable: events [C0, C1..Cm] for the
    clauses and [Xj], [NXj] for the literals; patterns force every variable
    gadget to place [Xj]/[NXj] at distance exactly 1 (truth assignment) and
    every clause gadget to place at least one of its literals at distance 2
    from its clause event. A tiny DPLL-style brute-force solver provides the
    ground truth the reduction is validated against in tests. *)

type literal = { var : int; positive : bool }
(** Variables are numbered from 0. *)

type clause = literal list
type formula = { num_vars : int; clauses : clause list }

val eval : bool array -> formula -> bool
(** Evaluate under an assignment (indexed by variable). *)

val brute_force : formula -> bool array option
(** Exhaustive satisfiability check (tests only; 2^n). *)

val random_3sat : Numeric.Prng.t -> num_vars:int -> num_clauses:int -> formula
(** Uniform random 3-clauses (distinct variables within a clause). *)

val to_patterns : formula -> Pattern.Ast.t list
(** The Theorem 2 transformation. The resulting set is consistent iff the
    formula is satisfiable. *)

val assignment_of_witness : formula -> Events.Tuple.t -> bool array option
(** Read a truth assignment back from a satisfying tuple of
    {!to_patterns} (variable [j] is true iff [t(Xj) - t(C0) = 3]).
    [None] if the tuple does not bind the gadget events. *)
