(** Parallel bulk explanation over multicore OCaml domains.

    Explaining a large trace is embarrassingly parallel: each non-answer's
    repair is independent (the temporal-network encoding is immutable and
    every solver allocates its own state). This module chunks the
    non-answers across [domains] and runs {!Explain.Modification} in
    parallel — the multi-tuple analogue of {!Query.explain_trace}, with
    identical results (asserted by tests).

    Figure 9's message — per-tuple cost independent of trace size — means
    throughput scales with cores; the ablation benchmark measures the
    speedup on this machine. *)

val explain_trace :
  ?domains:int ->
  ?strategy:Explain.Modification.strategy ->
  ?max_cost:int ->
  Pattern.Ast.t list ->
  Events.Trace.t ->
  Events.Trace.t
(** Same contract as {!Query.explain_trace}. [domains] defaults to
    [Domain.recommended_domain_count ()] capped at 8; [1] runs inline.
    @raise Invalid_argument on invalid patterns or [domains < 1]. *)

val map_tuples :
  ?domains:int ->
  (string -> Events.Tuple.t -> 'a) ->
  Events.Trace.t ->
  (string * 'a) list
(** Generic parallel map over a trace's tuples (id order preserved in the
    result). The function must be safe to run concurrently — pure
    computations over immutable inputs, like everything in this library. *)
