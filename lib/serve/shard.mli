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

    In {e threaded} mode each shard runs a dedicated worker domain behind
    a bounded job queue; {!submit} admits a batch all-or-nothing (a shed
    batch is never partially applied), blocks until it is processed and
    returns per-event results in input order. A full shard queue sheds
    the whole batch — the serving layer answers 429. In {e inline} mode
    (the default) there are no worker domains: the caller's domain
    processes batches synchronously, nothing ever sheds, and — like the
    unsharded service before it — the pool must be driven from one domain
    at a time.

    Per-pool metrics: [serve.shard.<k>.queue_depth] /
    [serve.shard.<k>.keys] gauges and [serve.shard.<k>.events] counters,
    plus the [serve.shed] counter; feeding also accounts
    [serve.ingest.lines] / [serve.ingest.errors] / [serve.matches] and
    emits the [detector.match] / [detector.evict] / [detector.pressure] /
    [ingest.error] log events exactly as the unsharded service did
    (pressure is per key — each key has its own partial buffer).

    Tracing: {!submit} captures the caller's {!Obs.Trace.context} with
    each job; a worker adopts it (only when it can record something)
    and emits [serve.shard.queue_wait] and [serve.shard.service] spans
    into the submitting request's trace tree, plus the
    [serve.shard.service] span metric and its [.duration_us]
    histogram. *)

type t

type outcome =
  | Processed of (Cep.Detector.match_ list, string) result array
      (** one slot per submitted event, in input order *)
  | Shed
      (** some involved shard queue was full (or the pool is stopping);
          nothing was applied *)

val create :
  ?horizon:int ->
  ?max_partials:int ->
  ?shards:int ->
  ?queue_capacity:int ->
  ?threaded:bool ->
  Pattern.Ast.t list ->
  t
(** [horizon] and [max_partials] (default 4096, applied per key) as in
    {!Cep.Detector.template}; every detector runs the compiled engine. [shards] defaults to 1,
    [queue_capacity] (jobs per shard queue, threaded mode only) to 64 —
    [0] sheds every threaded batch, which is degenerate but handy for
    shedding drills and tests. [threaded] (default false) spawns one
    worker domain per shard; it is {b required} whenever the pool is
    submitted to from more than one domain. @raise Invalid_argument on
    [shards < 1], a negative capacity, or an invalid query (as
    {!Cep.Detector.create}). *)

val submit : t -> (string * Cep.Detector.instance) array -> outcome
(** Process one batch of [(key, instance)] pairs. Splits by shard,
    admits all-or-nothing, blocks until every involved shard has
    processed its sub-batch. Per-event [Error] (e.g. a decreasing
    timestamp within a key's stream) does not abort the batch. *)

val shard_count : t -> int

val queue_capacity : t -> int

val threaded : t -> bool

val shard_of_key : t -> string -> int
(** The shard a key routes to: [""] pins to 0, others hash. Exposed for
    tests and capacity planning. *)

val saturation : t -> (int * int) list
(** [(shard index, queued jobs)] for every shard whose queue is full
    right now — the shards on which an admission would shed. Always []
    for inline pools (they never shed). Backs the [/ready]
    back-pressure probe. *)

val stop : t -> unit
(** Threaded mode: ask every worker to drain its queue and exit, then
    join them. Admitted batches complete; batches submitted after stop
    are {!Shed}. Idempotent; a no-op for inline pools. *)
