(* Partition-keyed detector shards behind `whynot serve`.

   The pool owns K shards; every partition key hashes to one shard, and
   each shard keeps one detector per key (built from a shared
   Cep.Detector.template, so the query is validated and compiled once, not
   once per key). Events with different keys are separate logical streams
   and never combine into one match — the partitioned-parallel-detection
   model of cloud-native CEP. The keyless stream is the single implicit
   key "" and always lands on shard 0, which keeps a 1-shard pool
   bit-identical to the single sequential detector it replaces.

   Threading: in threaded mode each shard runs a dedicated worker domain
   draining a bounded job queue (a channel in all but name — see
   DESIGN.md for why per-shard queues beat a mutex per shard here).
   [submit] splits a batch by shard, admits it all-or-nothing (so a shed
   batch is never partially applied and can be retried wholesale), blocks
   until every sub-batch is processed, and returns per-event results in
   input order. A full queue sheds the whole batch instead of queueing
   unbounded work — the caller turns that into HTTP 429. In inline mode
   (no worker domains) the caller's domain processes batches
   synchronously and nothing ever sheds; like the pre-shard service, an
   inline pool must then be driven from one domain at a time.

   Every mutable container here is function-local or reached only through
   values created in [create]: shard queues are guarded by the shard
   mutex, key tables are private to the shard's processing domain, and
   batch completion is an atomic countdown. *)

let shed_c = Obs.counter "serve.shed"
let ingest_lines_c = Obs.counter "serve.ingest.lines"
let ingest_errors_c = Obs.counter "serve.ingest.errors"
let matches_c = Obs.counter "serve.matches"

let queue_wait_s =
  Obs.span ~buckets:Obs.latency_buckets "serve.shard.queue_wait"

let service_s = Obs.span ~buckets:Obs.latency_buckets "serve.shard.service"

type keystate = {
  det : Cep.Detector.t;
  mutable pressured : bool;
      (* edge-triggered pressure warning state; touched only by the
         domain processing this shard *)
}

type cell = {
  results : (Cep.Detector.match_ list, string) result array;
      (* slot per submitted event; sub-batches write disjoint indices *)
  remaining : int Atomic.t;  (* sub-batches still outstanding *)
  cm : Mutex.t;
  cv : Condition.t;
}

type job = {
  items : (int * string * Cep.Detector.instance) list;
      (* (result slot, key, instance), in input order *)
  cell : cell;
  ctx : Obs.Trace.context;
      (* the submitting request's trace position, so the worker's spans
         join its tree (and capture buffer) *)
  enqueued_ns : int;  (* when the job entered the shard queue *)
}

type shard = {
  index : int;
  sm : Mutex.t;
  not_empty : Condition.t;
  jobs : job Queue.t;  (* guarded by [sm] *)
  mutable stop_requested : bool;  (* guarded by [sm] *)
  keys : (string, keystate) Hashtbl.t;
      (* private to the domain processing this shard *)
  depth_g : Obs.gauge;
  events_c : Obs.counter;
  keys_g : Obs.gauge;
}

type t = {
  tpl : Cep.Detector.template;
  max_partials : int;
  capacity : int;
  shards : shard array;
  mutable domains : unit Domain.t array;  (* [||] in inline mode *)
  stopped : bool Atomic.t;
}

type outcome =
  | Processed of (Cep.Detector.match_ list, string) result array
  | Shed

let shard_count t = Array.length t.shards
let queue_capacity t = t.capacity
let threaded t = Array.length t.domains > 0

(* The keyless stream pins to shard 0 (not hash "") so single-detector
   compatibility is by construction, not by accident of the hash. *)
let shard_of_key t key =
  if String.equal key "" then 0
  else Hashtbl.hash key mod Array.length t.shards

(* One event through one key's detector, with the same accounting the
   unsharded service performed: ingest counters, match/evict logging and
   the edge-triggered pressure warning (per key — each key has its own
   partial buffer and its own bound). *)
let feed_keyed t shard ~key (inst : Cep.Detector.instance) =
  let ks =
    match Hashtbl.find_opt shard.keys key with
    | Some ks -> ks
    | None ->
        let ks = { det = Cep.Detector.of_template t.tpl; pressured = false } in
        Hashtbl.add shard.keys key ks;
        Obs.gauge_set shard.keys_g (Hashtbl.length shard.keys);
        ks
  in
  Obs.incr shard.events_c;
  let dropped0 = Cep.Detector.dropped_capacity ks.det in
  match Cep.Detector.feed ks.det inst with
  | exception Invalid_argument reason ->
      Obs.incr ingest_errors_c;
      Obs.Log.emit Warn "ingest.error"
        [
          ("event", Str inst.event);
          ("timestamp", Num inst.timestamp);
          ("reason", Str reason);
        ];
      Error reason
  | matches ->
      Obs.incr ingest_lines_c;
      Obs.add matches_c (List.length matches);
      if Obs.Log.enabled Info then
        List.iter
          (fun (m : Cep.Detector.match_) ->
            Obs.Log.emit Info "detector.match"
              (List.map (fun (e, tag) -> (e, Obs.Log.Str tag)) m.tags))
          matches;
      let dropped1 = Cep.Detector.dropped_capacity ks.det in
      if dropped1 > dropped0 then
        Obs.Log.emit Warn "detector.evict"
          [ ("count", Num (dropped1 - dropped0)); ("total", Num dropped1) ];
      let live = Cep.Detector.partial_count ks.det in
      (* Log the pressure edge, not the steady state: once above 80% of
         capacity warn once, and re-arm only after falling below half. *)
      if live * 5 >= t.max_partials * 4 then begin
        if not ks.pressured then begin
          ks.pressured <- true;
          Obs.Log.emit Warn "detector.pressure"
            [ ("live", Num live); ("max_partials", Num t.max_partials) ]
        end
      end
      else if live * 2 < t.max_partials then ks.pressured <- false;
      Ok matches

let run_job t shard job =
  (* queue wait ended when this worker dequeued the job *)
  let dequeued_ns = Obs.now_ns () in
  let work () =
    Obs.elapsed queue_wait_s ~t0_ns:job.enqueued_ns ~t1_ns:dequeued_ns;
    Obs.time service_s (fun () ->
        if Obs.Trace.should_emit () then
          Obs.Trace.emit
            (Mark { label = Printf.sprintf "shard.%d" shard.index });
        List.iter
          (fun (slot, key, inst) ->
            job.cell.results.(slot) <- feed_keyed t shard ~key inst)
          job.items)
  in
  (* Adopt the submitting request's trace context only when it can
     record something — an untraced request costs the worker nothing. *)
  if Obs.Trace.context_active job.ctx then Obs.Trace.with_context job.ctx work
  else work ();
  if Atomic.fetch_and_add job.cell.remaining (-1) = 1 then begin
    Mutex.lock job.cell.cm;
    Condition.broadcast job.cell.cv;
    Mutex.unlock job.cell.cm
  end

(* Worker domain: drain the shard queue until stop is requested AND the
   queue is empty — admitted batches are always completed, so a submitter
   can never be left waiting on a cell across shutdown. *)
let worker t shard =
  let rec next () =
    Mutex.lock shard.sm;
    while Queue.is_empty shard.jobs && not shard.stop_requested do
      Condition.wait shard.not_empty shard.sm
    done;
    match Queue.take_opt shard.jobs with
    | Some job ->
        Obs.gauge_set shard.depth_g (Queue.length shard.jobs);
        Mutex.unlock shard.sm;
        run_job t shard job;
        next ()
    | None -> Mutex.unlock shard.sm (* stopping and drained *)
  in
  next ()

let create ?horizon ?(max_partials = 4096) ?(shards = 1)
    ?(queue_capacity = 64) ?(threaded = false) patterns =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if queue_capacity < 0 then
    invalid_arg "Shard.create: negative queue capacity";
  let tpl = Cep.Detector.template ?horizon ~max_partials patterns in
  let mk k =
    let s =
      {
        index = k;
        sm = Mutex.create ();
        not_empty = Condition.create ();
        jobs = Queue.create ();
        stop_requested = false;
        keys = Hashtbl.create 16;
        depth_g = Obs.gauge (Printf.sprintf "serve.shard.%d.queue_depth" k);
        events_c = Obs.counter (Printf.sprintf "serve.shard.%d.events" k);
        keys_g = Obs.gauge (Printf.sprintf "serve.shard.%d.keys" k);
      }
    in
    (* metrics are process-global: a fresh pool starts its gauges clean *)
    Obs.gauge_set s.depth_g 0;
    Obs.gauge_set s.keys_g 0;
    s
  in
  let t =
    {
      tpl;
      max_partials;
      capacity = queue_capacity;
      shards = Array.init shards mk;
      domains = [||];
      stopped = Atomic.make false;
    }
  in
  if threaded then
    t.domains <-
      Array.init shards (fun k -> Domain.spawn (fun () -> worker t t.shards.(k)));
  t

let submit t batch =
  let n = Array.length batch in
  let results = Array.make n (Ok []) in
  if n = 0 then Processed results
  else if not (threaded t) then begin
    (* inline mode runs on the caller's domain, inside the request's
       trace scope already — one shard-service span covers the batch *)
    Obs.time service_s (fun () ->
        Array.iteri
          (fun i (key, inst) ->
            let shard = t.shards.(shard_of_key t key) in
            results.(i) <- feed_keyed t shard ~key inst)
          batch);
    Processed results
  end
  else begin
    let nshards = Array.length t.shards in
    let buckets = Array.make nshards [] in
    for i = n - 1 downto 0 do
      let key, inst = batch.(i) in
      let s = shard_of_key t key in
      buckets.(s) <- (i, key, inst) :: buckets.(s)
    done;
    let involved =
      List.filter
        (fun s -> buckets.(s.index) <> [])
        (Array.to_list t.shards)
    in
    let cell =
      {
        results;
        remaining = Atomic.make (List.length involved);
        cm = Mutex.create ();
        cv = Condition.create ();
      }
    in
    let ctx = Obs.Trace.context () in
    (* All-or-nothing admission: take every involved shard's lock in
       ascending index order (t.shards order — no deadlock against other
       submitters), check every capacity, then enqueue everywhere or
       nowhere. A shed batch leaves no trace, so the client may retry it
       wholesale without duplicating events into some shards. *)
    List.iter (fun s -> Mutex.lock s.sm) involved;
    let admit =
      List.for_all
        (fun s ->
          (not s.stop_requested) && Queue.length s.jobs < t.capacity)
        involved
    in
    if admit then begin
      let enqueued_ns = Obs.now_ns () in
      List.iter
        (fun s ->
          Queue.add
            { items = buckets.(s.index); cell; ctx; enqueued_ns }
            s.jobs;
          Obs.gauge_set s.depth_g (Queue.length s.jobs);
          Condition.signal s.not_empty)
        involved
    end;
    List.iter (fun s -> Mutex.unlock s.sm) involved;
    if not admit then begin
      Obs.incr shed_c;
      Shed
    end
    else begin
      Mutex.lock cell.cm;
      while Atomic.get cell.remaining > 0 do
        Condition.wait cell.cv cell.cm
      done;
      Mutex.unlock cell.cm;
      Processed results
    end
  end

(* Shards whose queue is full right now — the ones on which an
   admission would shed. Inline pools never shed. *)
let saturation t =
  if not (threaded t) then []
  else
    Array.fold_right
      (fun s acc ->
        Mutex.lock s.sm;
        let queued = Queue.length s.jobs in
        Mutex.unlock s.sm;
        if queued >= t.capacity then (s.index, queued) :: acc else acc)
      t.shards []

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Array.iter
      (fun s ->
        Mutex.lock s.sm;
        s.stop_requested <- true;
        Condition.broadcast s.not_empty;
        Mutex.unlock s.sm)
      t.shards;
    Array.iter Domain.join t.domains;
    t.domains <- [||]
  end
