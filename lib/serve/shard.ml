(* Partition-keyed detector shards behind `whynot serve`.

   The pool owns K shards; every partition key hashes to one shard, and
   each shard keeps one detector per key (built from a shared
   Cep.Detector.template, so the query is validated and compiled once, not
   once per key). Events with different keys are separate logical streams
   and never combine into one match — the partitioned-parallel-detection
   model of cloud-native CEP. The keyless stream is the single implicit
   key "" and always lands on shard 0, which keeps a 1-shard pool
   bit-identical to the single sequential detector it replaces.

   Run to completion: [submit] feeds a batch on the caller's domain.
   It admits the batch all-or-nothing on the shards it touches (so a shed
   batch is never partially applied and can be retried wholesale), then
   visits those shards in ascending index order, feeding each one's
   events in input order under that shard's mutex alone. A worker holds
   one shard lock at a time, so concurrent batches over the same shards
   pipeline instead of serializing, and a key's events, all on one
   shard, keep their order. No other domain takes part; DESIGN.md gives
   the measurements behind this design.

   Every mutable container here is function-local or reached only through
   values created in [create]: a shard's key table is touched only under
   its [sm], and the admission counts are atomic gauges. *)

let shed_c = Obs.counter "serve.shed"
let ingest_lines_c = Obs.counter "serve.ingest.lines"
let ingest_errors_c = Obs.counter "serve.ingest.errors"
let matches_c = Obs.counter "serve.matches"
let service_s = Obs.span ~buckets:Obs.latency_buckets "serve.shard.service"

(* A partition key, as a range of a string. The table stores keys cut
   out of their body once, at [pos] 0; lookups go through a shard's
   [probe], pointed at the range in the request body, so finding a known
   key allocates nothing. *)
module Key = struct
  type t = { mutable s : string; mutable pos : int; mutable len : int }

  let equal a b =
    a.len = b.len
    &&
    let rec go k =
      k = a.len
      || Char.equal
           (String.unsafe_get a.s (a.pos + k))
           (String.unsafe_get b.s (b.pos + k))
         && go (k + 1)
    in
    go 0

  (* FNV-1a over the bytes *)
  let hash k =
    let h = ref 0x811c9dc5 in
    for i = k.pos to k.pos + k.len - 1 do
      h := (!h lxor Char.code (String.unsafe_get k.s i)) * 0x100000001b3
    done;
    !h land max_int
end

module Keys = Hashtbl.Make (Key)

type keystate = {
  det : Cep.Detector.t;
  mutable pressured : bool;
      (* edge-triggered pressure warning state; touched only under the
         shard's [sm] *)
}

type shard = {
  index : int;
  sm : Mutex.t;  (* held while a batch feeds this shard's detectors *)
  keys : keystate Keys.t;  (* touched only under [sm] *)
  probe : Key.t;  (* the lookup key; touched only under [sm] *)
  depth_g : Obs.gauge;
      (* the admission count itself: batches counted on this shard and
         not yet ended — waiting for [sm], running under it, on another
         shard of their batch, or about to give the count back and shed *)
  events_c : Obs.counter;
  keys_g : Obs.gauge;
}

type t = {
  tpl : Cep.Detector.template;
  max_partials : int;
  capacity : int;
  shards : shard array;
}

type outcome =
  | Processed of (Cep.Detector.match_ list, string) result array
  | Shed

let queue_capacity t = t.capacity
let template t = t.tpl

(* The keyless stream pins to shard 0 (not hash "") so single-detector
   compatibility is by construction, not by accident of the hash. *)
let shard_of_key t key =
  if String.equal key "" then 0
  else Hashtbl.hash key mod Array.length t.shards

(* The detector of line [i]'s key, created on the key's first event. *)
let keystate t shard (b : Ingest.batch) i =
  let p = shard.probe in
  let pos = Ingest.key_pos b i in
  if pos >= 0 then begin
    p.s <- b.body;
    p.pos <- pos;
    p.len <- Ingest.key_stop b i - pos
  end
  else begin
    let key = Ingest.key b i in
    p.s <- key;
    p.pos <- 0;
    p.len <- String.length key
  end;
  match Keys.find shard.keys p with
  | ks -> ks
  | exception Not_found ->
      let ks = { det = Cep.Detector.of_template t.tpl; pressured = false } in
      Keys.add shard.keys
        { Key.s = String.sub p.s p.pos p.len; pos = 0; len = p.len }
        ks;
      Obs.gauge_set shard.keys_g (Keys.length shard.keys);
      ks

let ok_none = Ok []

(* Per shard pass, added to the counters once, when the pass ends. *)
type tally = { mutable fed : int; mutable lines : int; mutable matched : int }

(* Event line [i] through its key's detector, with the same accounting the
   unsharded service performed: ingest counters, match/evict logging and
   the edge-triggered pressure warning (per key — each key has its own
   partial buffer and its own bound). Runs under [shard.sm]. *)
let feed_line t shard tally (b : Ingest.batch) i =
  let ks = keystate t shard b i in
  let ty = Ingest.kind b i and timestamp = Ingest.timestamp b i in
  tally.fed <- tally.fed + 1;
  let dropped0 = Cep.Detector.dropped_capacity ks.det in
  (* an irrelevant event only moves its key's clock: no tag is cut *)
  let tag = if ty < 0 then "" else Ingest.tag b i in
  match Cep.Detector.feed_type ks.det ~ty ~timestamp ~tag with
  | exception Invalid_argument reason ->
      Obs.incr ingest_errors_c;
      Obs.Log.emit Warn "ingest.error"
        [
          ("event", Str (Ingest.event b i));
          ("timestamp", Num timestamp);
          ("reason", Str reason);
        ];
      Error reason
  | matches ->
      tally.lines <- tally.lines + 1;
      let result =
        match matches with
        | [] -> ok_none
        | _ ->
            tally.matched <- tally.matched + List.length matches;
            if Obs.Log.enabled Info then
              List.iter
                (fun (m : Cep.Detector.match_) ->
                  Obs.Log.emit Info "detector.match"
                    (List.map (fun (e, tag) -> (e, Obs.Log.Str tag)) m.tags))
                matches;
            Ok matches
      in
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
      result

let create ?horizon ?(max_partials = 4096) ?(shards = 1)
    ?(queue_capacity = 64) patterns =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if queue_capacity < 0 then
    invalid_arg "Shard.create: negative queue capacity";
  let tpl = Cep.Detector.template ?horizon ~max_partials patterns in
  let mk k =
    let s =
      {
        index = k;
        sm = Mutex.create ();
        keys = Keys.create 16;
        probe = { Key.s = ""; pos = 0; len = 0 };
        depth_g = Obs.gauge (Printf.sprintf "serve.shard.%d.queue_depth" k);
        events_c = Obs.counter (Printf.sprintf "serve.shard.%d.events" k);
        keys_g = Obs.gauge (Printf.sprintf "serve.shard.%d.keys" k);
      }
    in
    (* metrics are process-global: a fresh pool starts with no keys. The
       admission count needs no reset — every submit gives back what it
       took, and resetting it under another pool's running batch would
       drive it negative. *)
    Obs.gauge_set s.keys_g 0;
    s
  in
  { tpl; max_partials; capacity = queue_capacity; shards = Array.init shards mk }

(* One shard's share of a batch, in input order, under its lock alone:
   one shard-service span per shard, on the caller's domain and inside
   the request's trace scope already. [route] is [None] when every event
   goes to this shard. The pass's counts reach the counters when it
   ends, also when feeding raises. *)
let feed_shard t shard route (b : Ingest.batch) results =
  let tally = { fed = 0; lines = 0; matched = 0 } in
  Mutex.lock shard.sm;
  Fun.protect
    ~finally:(fun () ->
      Obs.add shard.events_c tally.fed;
      Obs.add ingest_lines_c tally.lines;
      Obs.add matches_c tally.matched;
      Mutex.unlock shard.sm)
    (fun () ->
      Obs.time service_s (fun () ->
          for i = 0 to b.lines - 1 do
            if
              Ingest.kind b i > Ingest.skip
              &&
              match route with
              | None -> true
              | Some r -> r.(i) = shard.index
            then results.(i) <- feed_line t shard tally b i
          done))

let submit t (b : Ingest.batch) =
  let results = Array.make b.lines ok_none in
  if b.events = 0 then Processed results
  else begin
    (* one shard needs no routing; more hash each event's key once *)
    let route, involved =
      if Array.length t.shards = 1 then (None, [ t.shards.(0) ])
      else begin
        let r = Array.make b.lines 0 in
        let hit = Array.make (Array.length t.shards) false in
        for i = 0 to b.lines - 1 do
          if Ingest.kind b i > Ingest.skip then begin
            let k = shard_of_key t (Ingest.key b i) in
            r.(i) <- k;
            hit.(k) <- true
          end
        done;
        (Some r, List.filter (fun s -> hit.(s.index)) (Array.to_list t.shards))
      end
    in
    (* shard visibility: the access log and /debug/slow carry the shards
       a batch routes to, a shed one's too *)
    List.iter (fun s -> Obs.Request.note_shard s.index) involved;
    (* All-or-nothing admission: count the batch on every involved shard
       first, then check. If any already held [capacity] batches, the
       batch sheds having applied nothing, so the client may retry it
       wholesale without duplicating events into some shards. Every count
       is given back when the batch ends, shed, fed or raising. *)
    let admitted =
      List.fold_left
        (fun ok s -> Obs.gauge_add s.depth_g 1 < t.capacity && ok)
        true involved
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun s -> ignore (Obs.gauge_add s.depth_g (-1))) involved)
      (fun () ->
        if admitted then begin
          (* [involved] is in ascending index order, the one order every
             submitter visits shards in *)
          List.iter (fun s -> feed_shard t s route b results) involved;
          Processed results
        end
        else begin
          Obs.incr shed_c;
          Shed
        end)
  end

(* Shards whose admission count is at capacity right now — the ones on
   which an admission would shed. Reads the gauges; takes no lock. *)
let saturation t =
  Array.fold_right
    (fun s acc ->
      let admitted = Obs.gauge_value s.depth_g in
      if admitted >= t.capacity then (s.index, admitted) :: acc else acc)
    t.shards []
