module Event = Events.Event
module Tuple = Events.Tuple
module Weight = Tcn.Weight
module Checked = Numeric.Checked

type target = {
  tgt_index : int;
  tgt_prereq : int;
}

type transition = {
  tr_targets : target list;
  tr_fresh : target list;
}

type t = {
  events : Event.t array;
  types : Event.t array;
  transitions : transition array;
  matrices : int array array array;
  fallback : (Tuple.t -> bool) option;
}

let matrix_count t = Array.length t.matrices

(* --- assignments --- *)

(* A set of event indices, one bit each. Bytes rather than an [int], so
   any number of pattern events fits: REPEAT(E, k) has no bound on k.
   A set is never mutated once a partial holds it. *)
let has bits i =
  Char.code (Bytes.get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let with_bit bits i =
  let b = Bytes.copy bits in
  let k = i lsr 3 in
  Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lor (1 lsl (i land 7))));
  b

(* The assigned (event index, timestamp, tag) triples, newest first. *)
type cells =
  | Nil
  | Cell of { idx : int; ts : Events.Time.t; tag : string; next : cells }

(* The assignment as a tuple, its events added oldest first: the same
   insertion order (and so the same map) the naive engine builds. *)
let rec to_tuple events = function
  | Nil -> Tuple.empty
  | Cell c -> Tuple.add events.(c.idx) c.ts (to_tuple events c.next)

let rec to_tags events = function
  | Nil -> []
  | Cell c -> (events.(c.idx), c.tag) :: to_tags events c.next

(* --- partials --- *)

(* Partials are immutable snapshots (skip-till-any-match keeps the parent
   alive when an extension is made), so which instance types a partial can
   accept — and therefore its bucket memberships — are fixed at creation.
   [dead] is the only mutable bit: eviction tombstones a partial in place
   and every index skips tombstones until the next compaction. *)
type partial = {
  bits : Bytes.t;  (* the event indices in [cells] *)
  cells : cells;
  earliest : Events.Time.t;
  n_assigned : int;
  viable : int;  (* bitmask over [matrices]; unused in fallback mode *)
  e_bucket : partial list ref;  (* the same-earliest bucket holding it *)
  mutable dead : bool;
}

(* The fields a feed that evicts nothing reads come first, so they share
   a cache line. *)
type store = {
  horizon : int;
  mutable has_front : bool;  (* [by_earliest] is not empty *)
  mutable front : Events.Time.t;
      (* the first bucket's [earliest], kept here so that a feed that
         evicts nothing reads the store alone *)
  mutable live_count : int;
  mutable deaths : int;  (* tombstones since the last compaction *)
  plan : t;
  max_partials : int;
  full_mask : int;
  no_bits : Bytes.t;  (* the empty assignment *)
  buckets : partial list array;
      (* per instance type, the partials that can still accept it,
         newest first *)
  by_earliest : (Events.Time.t * partial list ref) Queue.t;
      (* buckets keyed by ascending [earliest]; horizon eviction pops
         whole buckets off the front *)
  by_insertion : partial Queue.t;
      (* oldest first; capacity eviction pops off the front *)
  mutable last_bucket : (Events.Time.t * partial list ref) option;
}

let create_store ~horizon ~max_partials plan =
  {
    plan;
    horizon;
    max_partials;
    full_mask =
      (match plan.fallback with
      | Some _ -> 0
      | None -> (1 lsl Array.length plan.matrices) - 1);
    no_bits = Bytes.make ((Array.length plan.events + 7) / 8) '\000';
    buckets = Array.make (Array.length plan.transitions) [];
    by_earliest = Queue.create ();
    has_front = false;
    front = 0;
    by_insertion = Queue.create ();
    last_bucket = None;
    live_count = 0;
    deaths = 0;
  }

let live s = s.live_count

type outcome = {
  out_matches : (Tuple.t * (Event.t * string) list) list;
  out_horizon_evicted : int;
  out_capacity_evicted : int;
  out_irrelevant : bool;
}

(* Saturating t(j) - t(i), clamped into [-inf, inf] exactly like a bound
   entering an STN — so the comparison against a minimal-network entry
   matches what the naive engine's pinned consistency check would see. *)
let diff a b = Weight.clamp (Weight.sat_sub a b)

(* Would assigning [events.(j) := ts] fit matrix [m] given the already
   assigned cells? By decomposability, pairwise bounds against the
   assigned events are exact. *)
let rec fits m cells j ts =
  match cells with
  | Nil -> true
  | Cell c ->
      let d = diff ts c.ts in
      d <= m.(c.idx).(j) && Weight.neg d <= m.(j).(c.idx) && fits m c.next j ts

(* Matrices from [mask] that also admit the new assignment. *)
let refine_mask plan mask cells j ts =
  let out = ref 0 in
  for k = 0 to Array.length plan.matrices - 1 do
    if mask land (1 lsl k) <> 0 && fits plan.matrices.(k) cells j ts then
      out := !out lor (1 lsl k)
  done;
  !out

(* Can [tgt] be filled next: its event unassigned, its prerequisite
   assigned? *)
let ready bits tgt =
  (not (has bits tgt.tgt_index))
  && (tgt.tgt_prereq < 0 || has bits tgt.tgt_prereq)

(* Which instance types can extend this assignment: type [ty] is accepted
   iff some target of [ty] is ready. Fixed for the partial's lifetime (the
   assignment is immutable). *)
let rec accepts bits = function
  | [] -> false
  | tgt :: rest -> ready bits tgt || accepts bits rest

let tombstone s p =
  p.dead <- true;
  s.live_count <- s.live_count - 1;
  s.deaths <- s.deaths + 1

let set_front s =
  s.has_front <- not (Queue.is_empty s.by_earliest);
  if s.has_front then s.front <- fst (Queue.peek s.by_earliest)

(* Rebuild every index without tombstones. Triggered once the tombstone
   count exceeds max(64, live), so the O(live + dead) rebuild is paid at
   most once per O(live + dead) evictions — amortized O(1) per death. *)
let compact s =
  let alive = Queue.create () in
  Queue.iter (fun p -> if not p.dead then Queue.push p alive) s.by_insertion;
  Queue.clear s.by_insertion;
  Queue.transfer alive s.by_insertion;
  Array.iteri
    (fun ty b -> s.buckets.(ty) <- List.filter (fun p -> not p.dead) b)
    s.buckets;
  let kept = Queue.create () in
  Queue.iter
    (fun (e, b) ->
      b := List.filter (fun p -> not p.dead) !b;
      if not (!b = []) then Queue.push (e, b) kept)
    s.by_earliest;
  Queue.clear s.by_earliest;
  Queue.transfer kept s.by_earliest;
  set_front s;
  (* a dropped empty bucket must never be resurrected by key reuse *)
  s.last_bucket <- None;
  s.deaths <- 0

let maybe_compact s =
  let threshold = if s.live_count > 64 then s.live_count else 64 in
  if s.deaths > threshold then compact s

(* The same-earliest bucket for a fresh partial born at [ts]. Fresh
   partials' [earliest] is non-decreasing across feeds, so reusing the
   newest bucket (or pushing a new one) keeps the queue sorted. *)
let earliest_bucket s ts =
  match s.last_bucket with
  | Some (t0, b) when t0 = ts -> b
  | _ ->
      let b = ref [] in
      Queue.push (ts, b) s.by_earliest;
      if not s.has_front then set_front s;
      s.last_bucket <- Some (ts, b);
      b

(* Register a newly created partial in every index. Callers insert the
   batch of one feed oldest-first, so each bucket stays newest-first and
   the insertion queue stays oldest-first — the exact order the naive
   engine's [keep @ fresh @ alive] list encodes. *)
let insert s p =
  Queue.push p s.by_insertion;
  p.e_bucket := p :: !(p.e_bucket);
  let trs = s.plan.transitions in
  for ty = 0 to Array.length trs - 1 do
    if accepts p.bits trs.(ty).tr_targets then
      s.buckets.(ty) <- p :: s.buckets.(ty)
  done

(* Horizon eviction pops whole expired buckets: every partial in a bucket
   shares its [earliest], so the work is O(evicted), not O(live). Returns
   the number of partials evicted. *)
let rec evict_horizon s timestamp n =
  (* the naive engine cuts the same way *)
  if (not s.has_front) || Weight.sat_sub timestamp s.front <= s.horizon then n
  else begin
    let _, bucket = Queue.pop s.by_earliest in
    set_front s;
    let n =
      List.fold_left
        (fun n p ->
          if p.dead then n
          else begin
            tombstone s p;
            n + 1
          end)
        n !bucket
    in
    bucket := [];
    evict_horizon s timestamp n
  end

(* The fresh singletons of one feed, inserted oldest first: the naive
   engine's [fresh] list is in trial order, newest first. Like the naive
   engine, they skip the feasibility check (a single event always fits
   some binding matrix). Returns how many were inserted. *)
let rec insert_fresh s ~timestamp ~tag = function
  | [] -> 0
  | tgt :: rest ->
      let n = insert_fresh s ~timestamp ~tag rest in
      insert s
        {
          bits = with_bit s.no_bits tgt.tgt_index;
          cells = Cell { idx = tgt.tgt_index; ts = timestamp; tag; next = Nil };
          earliest = timestamp;
          n_assigned = 1;
          viable = s.full_mask;
          e_bucket = earliest_bucket s timestamp;
          dead = false;
        };
      n + 1

(* [name] against [s.[pos] .. s.[stop - 1]], ordered as [String.compare]
   orders the two strings: [i] walks [name], [j] walks the range. *)
let rec compare_sub name s i j stop =
  if i = String.length name then if j = stop then 0 else -1
  else if j = stop then 1
  else
    let c = Char.compare (String.unsafe_get name i) (String.get s j) in
    if c <> 0 then c else compare_sub name s (i + 1) (j + 1) stop

let type_index types s ~pos ~stop =
  (* binary search over the sorted names, [lo, hi) still open *)
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 (* check: idx - both are indices of types *) in
      let c = compare_sub types.(mid) s 0 pos stop in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length types)

(* The outcome of an irrelevant instance that evicted nothing, shared. *)
let irrelevant =
  {
    out_matches = [];
    out_horizon_evicted = 0;
    out_capacity_evicted = 0;
    out_irrelevant = true;
  }

let step_type s ~ty ~timestamp ~tag =
  (* runs on every feed, irrelevant instance types included *)
  let horizon_evicted = evict_horizon s timestamp 0 in
  if ty < 0 then begin
    maybe_compact s;
    if horizon_evicted = 0 then irrelevant
    else { irrelevant with out_horizon_evicted = horizon_evicted }
  end
  else begin
    let plan = s.plan in
    let tr = plan.transitions.(ty) in
    let complete = Array.length plan.events in
    (* Extensions in reverse generation order: a completed assignment
       goes to [rev_done] as its cells, any other to [rev_keep] as a
       partial. *)
    let rev_keep = ref [] and rev_done = ref [] in
    let extend p tgt =
      if ready p.bits tgt then begin
        let cells =
          Cell { idx = tgt.tgt_index; ts = timestamp; tag; next = p.cells }
        in
        (* the matrices the extension fits, -1 when it fits none *)
        let viable =
          match plan.fallback with
          | Some check ->
              if check (to_tuple plan.events cells) then 0 else -1
          | None ->
              let v =
                refine_mask plan p.viable p.cells tgt.tgt_index timestamp
              in
              if v = 0 then -1 else v
        in
        if viable < 0 then ()
        else if p.n_assigned + 1 = complete then
          rev_done := cells :: !rev_done
        else
          rev_keep :=
            {
              bits = with_bit p.bits tgt.tgt_index;
              cells;
              (* the clock never runs backwards, so the parent's
                 earliest is inherited (and with it its bucket) *)
              earliest = p.earliest;
              n_assigned = p.n_assigned + 1;
              viable;
              e_bucket = p.e_bucket;
              dead = false;
            }
            :: !rev_keep
      end
    in
    let rec try_targets p = function
      | [] -> ()
      | tgt :: rest ->
          extend p tgt;
          try_targets p rest
    in
    (* The bucket as it stood before this feed: only pre-existing
       partials are extension candidates, and the list is newest-first —
       the order the naive engine scans its buffer. *)
    List.iter
      (fun p -> if not p.dead then try_targets p tr.tr_targets)
      s.buckets.(ty);
    (* naive buffer order is [keep @ fresh @ alive]; insert oldest
       first, so: fresh, then keep *)
    let fresh = insert_fresh s ~timestamp ~tag tr.tr_fresh in
    List.iter (insert s) !rev_keep;
    s.live_count <-
      Checked.add s.live_count (Checked.add fresh (List.length !rev_keep));
    let capacity_evicted = ref 0 in
    while s.live_count > s.max_partials do
      (* oldest live partial first; popped tombstones cost nothing *)
      let p = Queue.pop s.by_insertion in
      if not p.dead then begin
        tombstone s p;
        incr capacity_evicted
      end
    done;
    maybe_compact s;
    {
      out_matches =
        List.rev_map
          (fun c -> (to_tuple plan.events c, to_tags plan.events c))
          !rev_done;
      out_horizon_evicted = horizon_evicted;
      out_capacity_evicted = !capacity_evicted;
      out_irrelevant = false;
    }
  end

let step s ~event ~timestamp ~tag =
  step_type s
    ~ty:(type_index s.plan.types event ~pos:0 ~stop:(String.length event))
    ~timestamp ~tag
