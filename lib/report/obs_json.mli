(** JSON rendering of {!Obs} metric snapshots.

    Schema (see [docs/OBSERVABILITY.md]):
    {v
    { "counters":   { "<name>": <int>, ... },
      "gauges":     { "<name>": <int>, ... },
      "histograms": { "<name>": { "count": n, "sum": s,
                                  "buckets": [ {"le": <int|"inf">, "n": k}, ... ] } },
      "spans":      { "<name>": { "count": n, "total_ms": f, "max_ms": f } } }
    v}
    Names are sorted; with [~timers:false] the [spans] section is
    omitted and the output is deterministic for a given workload. *)

val render : ?timers:bool -> Obs.snapshot -> Json.t
(** [timers] defaults to [true]. *)

val snapshot : ?timers:bool -> unit -> Json.t
(** [render] of {!Obs.snapshot}[ ()]. *)
