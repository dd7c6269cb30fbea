(** Partition-keyed detector shards: the parallel detection core of
    [whynot serve].

    A pool owns [shards] shards; every partition key (the optional fourth
    ingest CSV column, see {!Ingest}) hashes to one shard, and each shard
    keeps {e one detector per key}, derived from a shared
    {!Cep.Detector.template} so the query is validated and compiled once
    for the whole pool. Events with different keys are independent
    logical streams — they never combine into one match. The keyless
    stream is the implicit key [""] and always lands on shard 0, which
    makes a pool bit-identical to the single sequential detector on
    keyless input.

    {!submit} runs a batch to completion on the caller's domain: it
    admits the batch all-or-nothing on the shards it touches (a shed
    batch is never partially applied), then visits those shards in
    ascending index order and feeds each one's events, in input order,
    under that shard's mutex alone. A pool is safe to submit to from any
    number of domains at once: a submitter holds one shard lock at a
    time, so batches on disjoint shards run in parallel and batches over
    the same shards pipeline through them.

    Admission is optimistic: a submitter first counts its batch on every
    shard it touches and then checks the levels it found. The count
    therefore includes batches about to shed: two batches contending for
    the last slot of a shard can both shed where one would have fitted,
    and a batch about to shed can push out a third on another of its
    shards. That only happens when [queue_capacity] is below the number
    of concurrent submitters, and a shed batch is safe to retry.

    Per-pool metrics: [serve.shard.<k>.queue_depth] (the admission
    count: batches counted on shard [k] and not yet ended, including
    ones about to shed) / [serve.shard.<k>.keys] gauges and
    [serve.shard.<k>.events] counters, plus the [serve.shed] counter;
    feeding also accounts
    [serve.ingest.lines] / [serve.ingest.errors] / [serve.matches] and
    emits the [detector.match] / [detector.evict] / [detector.pressure] /
    [ingest.error] log events exactly as the unsharded service did
    (pressure is per key — each key has its own partial buffer). Metric
    names are process-global, so pools that live in one process at once
    share these series.

    Tracing: each shard a batch touches is one [serve.shard.service]
    span in the caller's trace, timed under that shard's lock, plus the
    span metric and its [.duration_us] histogram. *)

type t

type outcome =
  | Processed of (Cep.Detector.match_ list, string) result array
      (** one slot per line of the batch, in input order; a line with no
          event keeps [Ok \[\]] *)
  | Shed
      (** some involved shard already counted [queue_capacity] batches;
          nothing was applied *)

val create :
  ?horizon:int ->
  ?max_partials:int ->
  ?shards:int ->
  ?queue_capacity:int ->
  Pattern.Ast.t list ->
  t
(** [horizon] and [max_partials] (default 4096, applied per key) as in
    {!Cep.Detector.template}; every detector runs the compiled engine.
    [shards] defaults to 1, [queue_capacity] (counted, unfinished
    batches per shard before a batch sheds) to 64 — [0] sheds every
    batch, which is degenerate but handy for shedding drills and tests.
    @raise Invalid_argument on [shards < 1], a negative capacity, or an
    invalid query (as {!Cep.Detector.create}). *)

val submit : t -> Ingest.batch -> outcome
(** Process one scanned request body on the calling domain: route every
    event line's key once (a pool of one shard routes nothing), note each
    involved shard on the current request scope
    ({!Obs.Request.note_shard}, so a shed batch reports its shards too),
    admit the batch all-or-nothing, then for each involved shard in
    ascending index order hold its mutex while its events are fed in
    input order. An event of a type the query ignores steps its key's
    detector by timestamp alone ({!Cep.Detector.feed_type}); a tag is cut
    from the body only for a relevant event. [serve.ingest.lines],
    [serve.matches] and [serve.shard.<k>.events] are added once per shard
    pass, when it ends.
    Every lock and admission count is given back, also when feeding
    raises; events fed before the raise stay applied and counted.
    Per-event [Error] (e.g. a decreasing timestamp within a key's stream)
    does not abort the batch. A batch without events is [Processed]
    without admission. *)

val queue_capacity : t -> int

val template : t -> Cep.Detector.template
(** The pool's compiled query, which numbers the instance types
    ({!Cep.Detector.type_index}) for {!Ingest.scan_body}. *)

val shard_of_key : t -> string -> int
(** The shard a key routes to: [""] pins to 0, others hash. Exposed for
    tests and capacity planning. *)

val saturation : t -> (int * int) list
(** [(shard index, counted batches)] for every shard whose admission
    count is at capacity right now — the shards on which an admission
    would shed. Reads the gauges and takes no lock, so a batch that is
    about to shed can show here for an instant. Backs the [/ready]
    back-pressure probe. *)
