(** Table 1 / Examples 1–6: the paper's worked flight scenario, end to end.

    Verifies and prints: tuple t1 matches the query p0; t2 does not; the
    inconsistent variant of the query is rejected by the consistency
    explanation; the full-binding modification of t2 costs 44 minutes (the
    paper's optimum — Example 6) over the 16 bindings that Algorithm 2's
    sweep enumerates, and the branch-and-bound engine returns the same
    repair from fewer leaves; the special-case simple-network query of
    Example 3 repairs t2 at the same cost. Its repair is the earliest
    optimal one, which is the paper's t2' of Example 5: only E4 moves, from
    20:08 to 19:24. *)

type result = {
  t1_matches : bool;
  t2_matches : bool;
  inconsistent_variant_rejected : bool;
  full_cost : int;  (** expected 44 *)
  full_bindings : int;  (** bindings the flat sweep solves; expected 16 *)
  bnb_leaves : int;
      (** leaves the branch-and-bound engine solves for the same repair *)
  bnb_same_repair : bool;
      (** branch-and-bound's cost and repaired tuple equal the sweep's *)
  single_cost : int;
  example3_cost : int;  (** expected 44 *)
  example3_repaired : Events.Tuple.t;
      (** the Example-3 repair of {!t2}: E4 moved from 20:08 to 19:24, the
          paper's t2' *)
  paper_t2'_cost : int option;
      (** [Delta(t2, t2')] of the paper's Example-5 repair (only E4 moved,
          to 19:24) if it matches {!example3}; expected [Some 44] *)
}

val t2 : Events.Tuple.t
(** Table 1's tuple t2, which does not match p0. *)

val example3 : Pattern.Ast.t
(** Example 3's query, with both traced events later than the reported
    passenger's. *)

val run : unit -> result
val print : result -> unit
