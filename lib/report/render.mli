(** JSON renderings of the library's results — the machine-readable side of
    the [whynot] CLI ([--json]) and of downstream tooling (dashboards,
    notebooks plotting the benchmark series). All renderings are plain data
    (no identifiers invented here beyond field names). *)

val tuple : Events.Tuple.t -> Json.t
(** Object mapping event names to timestamps (artificial events omitted). *)

val diff : before:Events.Tuple.t -> after:Events.Tuple.t -> Json.t
(** List of [{event, from, to}] objects for the modified events. *)

val consistency : Explain.Consistency.report -> Json.t
val modification : original:Events.Tuple.t -> Explain.Modification.result -> Json.t
val query_repair : Explain.Query_repair.t -> Json.t
val pipeline : original:Events.Tuple.t -> Explain.Pipeline.outcome -> Json.t
val diagnose : Explain.Diagnose.t -> Json.t
