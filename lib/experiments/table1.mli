(** Table 1 / Examples 1–6: the paper's worked flight scenario, end to end.

    Verifies and prints: tuple t1 matches the query p0; t2 does not; the
    inconsistent variant of the query is rejected by the consistency
    explanation; the full-binding modification of t2 costs 44 minutes (the
    paper's optimum — Example 6) over the 16 bindings that Algorithm 2's
    sweep enumerates, and the branch-and-bound engine returns the same
    repair from fewer leaves; the special-case simple-network query of
    Example 3 repairs t2 at the same cost with t2'(E4) = 19:24
    (Example 5). *)

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
  example3_e4 : string;  (** expected "19:24" *)
}

val run : unit -> result
val print : result -> unit
