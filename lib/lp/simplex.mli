(** Linear programming by exact-rational two-phase primal simplex.

    No LP solver exists in the sealed build environment, so this module
    provides the one the paper's Algorithm 2 needs (Formula 4 and its
    LP-relaxation). All arithmetic is exact ({!Numeric.Rat}), so the solver
    reports true optima — in particular it lets the test suite observe that
    the timestamp-modification LP always has integral optima (its constraint
    matrix is a difference system, hence totally unimodular). Bland's rule
    guarantees termination in the presence of degeneracy. A pivot only
    touches the columns where the pivot row is nonzero, which on the
    mostly-zero repair tableaux is a few cells per row.

    Each tableau row is an unboxed [int array], updated in place, while all
    its cells are integers, and holds exact rationals from its first
    fraction on. Over the repair LPs of the benchmark's explain mix 4.7% of
    cell writes produce a fraction (0.06% on RTFM cases), so most rows never
    leave the integer form. Integer cells get exactly the {!Numeric.Checked}
    operations that {!Numeric.Rat}'s integer fast paths perform, and
    fractions are computed by [Rat] itself, so every value, every pivot and
    every {!Numeric.Checked.Overflow} is that of an all-rational tableau.

    The model is: minimize [c^T x] subject to linear constraints, with every
    variable implicitly non-negative (which is what the u/v substitution of
    Formula 4 produces). *)

type var = int
(** Variable handle, dense from 0. *)

type model

type sense = Le | Ge | Eq

val create : unit -> model

val copy : model -> model
(** Independent copy; constraints added to one are invisible to the other
    (branch-and-bound relies on this). *)

val add_var : model -> var
(** Fresh non-negative variable. *)

val num_vars : model -> int

val add_constraint : model -> (Numeric.Rat.t * var) list -> sense -> Numeric.Rat.t -> unit
(** [add_constraint m terms sense rhs] adds [sum terms (sense) rhs]. Terms
    may repeat a variable; coefficients are summed. *)

val set_objective : model -> (Numeric.Rat.t * var) list -> unit
(** Minimization objective; unset variables have zero cost. *)

type outcome =
  | Optimal of { objective : Numeric.Rat.t; values : Numeric.Rat.t array }
  | Infeasible
  | Unbounded

val solve : model -> outcome
(** Solve the current model. The model is reusable: constraints added after
    a solve are honoured by the next solve (used by the branch-and-bound
    ILP wrapper, which re-solves with added bounds). *)

val pp_outcome : Format.formatter -> outcome -> unit
