module Event = Events.Event
module Tuple = Events.Tuple

type instance = {
  event : Event.t;
  timestamp : Events.Time.t;
  tag : string;
}

type match_ = {
  tuple : Tuple.t;
  tags : (Event.t * string) list;
}

type engine = Naive | Compiled

type partial = {
  assigned : Tuple.t;
  p_tags : (Event.t * string) list;
  earliest : Events.Time.t;
}

type naive_buffer = { mutable partials : partial list (* newest first *) }

type state =
  | Naive_buffer of naive_buffer
  | Compiled_store of Plan.store

(* The fields every feed reads come first, so they share a cache line. *)
type t = {
  mutable clock : Events.Time.t;
  state : state;
  mutable dropped : int; (* capacity evictions *)
  mutable horizon_evicted : int;
  mutable count : int; (* naive only; the compiled store tracks its own *)
  types : Event.t array;  (* the instance types, sorted: their indices *)
  patterns : Pattern.Ast.t list;
  net : Tcn.Encode.set;
  required : Event.Set.t;
  horizon : int;
  max_partials : int;
  engine : engine;
}

let fed_c = Obs.counter "detector.instances_fed"
let irrelevant_c = Obs.counter "detector.instances_irrelevant"
let matches_c = Obs.counter "detector.matches"
let horizon_c = Obs.counter "detector.evicted_horizon"
let capacity_c = Obs.counter "detector.dropped_capacity"
let live_g = Obs.gauge "detector.partials_live"
let peak_g = Obs.gauge "detector.partials_peak"
let plan_matrices_g = Obs.gauge "detector.plan.matrices"
let plan_fallback_c = Obs.counter "detector.plan.fallback_checks"

let root_within = function
  | Pattern.Ast.Event _ -> None
  | Pattern.Ast.Seq (_, w) | Pattern.Ast.And (_, w) -> w.within

(* Everything about a query that is independent of detector state:
   validation, horizon inference, the encoding, the consistency pre-check
   and (for the compiled engine) the compiled plan. Sharded serving
   instantiates one detector per partition key; paying validation +
   compilation once per query instead of once per key is what makes that
   affordable. All fields are immutable after construction, so a template
   may be shared across domains — each [of_template] call builds a fresh
   mutable store. *)
type template = {
  tpl_patterns : Pattern.Ast.t list;
  tpl_net : Tcn.Encode.set;
  tpl_required : Event.Set.t;
  tpl_horizon : int;
  tpl_max_partials : int;
  tpl_engine : engine;
  tpl_types : Event.t array;
  tpl_plan : Plan.t option; (* [Some] iff [tpl_engine = Compiled] *)
}

let template ?(engine = Compiled) ?horizon ?(max_partials = 4096) patterns =
  (match Pattern.Ast.validate_set patterns with
  | Ok () -> ()
  | Error e ->
      invalid_arg (Format.asprintf "Detector.create: %a" Pattern.Ast.pp_error e));
  let horizon =
    match horizon with
    | Some h ->
        if h < 0 then invalid_arg "Detector.create: negative horizon"
        else if h > Events.Time.max_span then
          invalid_arg
            (Printf.sprintf "Detector.create: horizon %d exceeds the limit %d"
               h Events.Time.max_span)
        else h
    | None -> (
        match
          List.fold_left
            (fun acc p ->
              match (acc, root_within p) with
              | Some a, Some b -> Some (max a b)
              | None, w -> w
              | w, None -> w)
            None patterns
        with
        | Some h -> h
        | None ->
            invalid_arg
              "Detector.create: no root WITHIN bound; give ~horizon explicitly")
  in
  let net = Tcn.Encode.pattern_set patterns in
  let required = Pattern.Ast.events_of_set patterns in
  let plan =
    match engine with
    | Naive -> None
    | Compiled ->
        let plan =
          Compile.of_network
            ~on_fallback:(fun () -> Obs.incr plan_fallback_c)
            net patterns
        in
        Obs.gauge_set plan_matrices_g (Plan.matrix_count plan);
        Some plan
  in
  let consistent =
    match plan with
    | Some ({ Plan.fallback = None; _ } as plan) ->
        (* the plan's sweep kept the matrix of every consistent binding *)
        Plan.matrix_count plan > 0
    | Some _ | None ->
        (Explain.Consistency.check_network
           ~strategy:Explain.Consistency.Pruned ~events:required net)
          .consistent
  in
  if not consistent then
    invalid_arg "Detector.create: inconsistent query (it can never match)";
  {
    tpl_patterns = patterns;
    tpl_net = net;
    tpl_required = required;
    tpl_horizon = horizon;
    tpl_max_partials = max_partials;
    tpl_engine = engine;
    tpl_types =
      (match plan with
      | Some plan -> plan.Plan.types
      | None -> Compile.instance_types required);
    tpl_plan = plan;
  }

let of_template tpl =
  let state =
    match tpl.tpl_plan with
    | None -> Naive_buffer { partials = [] }
    | Some plan ->
        Compiled_store
          (Plan.create_store ~horizon:tpl.tpl_horizon
             ~max_partials:tpl.tpl_max_partials plan)
  in
  {
    patterns = tpl.tpl_patterns;
    net = tpl.tpl_net;
    required = tpl.tpl_required;
    horizon = tpl.tpl_horizon;
    max_partials = tpl.tpl_max_partials;
    engine = tpl.tpl_engine;
    types = tpl.tpl_types;
    state;
    count = 0;
    dropped = 0;
    horizon_evicted = 0;
    clock = min_int;
  }

let template_horizon tpl = tpl.tpl_horizon
let type_index tpl s ~pos ~stop = Plan.type_index tpl.tpl_types s ~pos ~stop

let create ?engine ?horizon ?max_partials patterns =
  of_template (template ?engine ?horizon ?max_partials patterns)

let engine t = t.engine

let partial_count t =
  match t.state with
  | Naive_buffer _ -> t.count
  | Compiled_store store -> Plan.live store

let dropped t = t.dropped
let dropped_capacity t = t.dropped
let evicted_horizon t = t.horizon_evicted

(* Targets an instance of a given type may fill: the event itself, plus
   every repeat alias of that base. Aliases are filled canonically in index
   order (the copies of one REPEAT group are totally ordered by the
   desugared SEQ, so the ascending-by-arrival assignment is complete). *)
let targets_of t instance_type = Compile.targets_of t.required instance_type

let alias_ready assigned e =
  match Event.alias_info e with
  | Some (_, _, 1) | None -> true
  | Some (base, group, index) ->
      Tuple.mem (Event.repeat_alias ~base ~group ~index:(index - 1)) assigned

let feasible t assigned =
  (Explain.Consistency.check_network ~strategy:Explain.Consistency.Pruned
     ~pinned:assigned t.net)
    .consistent

let complete t partial = Event.Set.for_all (fun e -> Tuple.mem e partial.assigned) t.required

(* The reference engine: enumerate straight off the AST with a full pinned
   consistency check per candidate extension. Kept as the differential-
   testing oracle for the compiled plan (the same role the flat binding
   sweep plays for Bnb). *)
let feed_naive t buf ~targets ~timestamp ~tag =
  (* Horizon eviction: a partial whose earliest instance is out of reach of
     the root window can never complete. This must happen on every feed —
     including instances of irrelevant types — or dead partials linger (and
     inflate the buffer) on streams dominated by other event types. *)
  let alive, expired =
    List.partition
      (* saturating, as [Plan.evict_horizon] cuts: a jump of 2^62 or more
         must not wrap round to "still in reach" *)
      (fun p -> Tcn.Weight.sat_sub timestamp p.earliest <= t.horizon)
      buf.partials
  in
  (match expired with
  | [] -> ()
  | _ ->
      let n = List.length expired in
      t.horizon_evicted <- t.horizon_evicted + n;
      Obs.add horizon_c n;
      if Obs.Trace.should_emit () then
        Obs.Trace.emit
          (Obs.Trace.Detector_evict { reason = Horizon; count = n });
      buf.partials <- alive;
      t.count <- t.count - n);
  if targets = [] then begin
    Obs.incr irrelevant_c;
    Obs.gauge_set live_g t.count;
    if Obs.Trace.should_emit () then
      Obs.Trace.emit (Obs.Trace.Detector_admit { live = t.count });
    []
  end
  else begin
    let extend p target =
      if Tuple.mem target p.assigned || not (alias_ready p.assigned target) then None
      else
        let assigned = Tuple.add target timestamp p.assigned in
        let candidate =
          {
            assigned;
            p_tags = (target, tag) :: p.p_tags;
            earliest = min p.earliest timestamp;
          }
        in
        if feasible t assigned then Some candidate else None
    in
    let fresh =
      List.filter_map
        (fun target ->
          if alias_ready Tuple.empty target then
            Some
              {
                assigned = Tuple.add target timestamp Tuple.empty;
                p_tags = [ (target, tag) ];
                earliest = timestamp;
              }
          else None)
        targets
    in
    let extensions =
      List.concat_map (fun p -> List.filter_map (extend p) targets) alive
    in
    let matches, keep =
      List.partition (fun p -> complete t p) extensions
    in
    let matches =
      (* The oracle confirms its completions with the matcher, which
         decides Definition 2 straight off the AST. *)
      List.filter (fun p -> Pattern.Matcher.matches_set p.assigned t.patterns) matches
    in
    let partials = keep @ fresh @ alive in
    let count = List.length partials in
    let partials, count =
      if count > t.max_partials then begin
        (* newest first: truncate the tail (oldest). Tail-recursive — the
           prefix length is the configurable max_partials, so a non-tail
           take could blow the stack on large capacities. *)
        let take k l =
          let rec go acc k = function
            | [] -> List.rev acc
            | _ when k = 0 -> List.rev acc
            | p :: rest -> go (p :: acc) (k - 1) rest
          in
          go [] k l
        in
        let evicted = count - t.max_partials in
        t.dropped <- t.dropped + evicted;
        Obs.add capacity_c evicted;
        if Obs.Trace.should_emit () then
          Obs.Trace.emit
            (Obs.Trace.Detector_evict { reason = Capacity; count = evicted });
        (take t.max_partials partials, t.max_partials)
      end
      else (partials, count)
    in
    buf.partials <- partials;
    t.count <- count;
    Obs.gauge_set live_g count;
    Obs.gauge_max peak_g count;
    if Obs.Trace.should_emit () then
      Obs.Trace.emit (Obs.Trace.Detector_admit { live = count });
    (match matches with
    | [] -> ()
    | _ ->
        let n = List.length matches in
        Obs.add matches_c n;
        if Obs.Trace.should_emit () then
          Obs.Trace.emit (Obs.Trace.Detector_match { count = n }));
    List.map
      (fun p -> { tuple = p.assigned; tags = List.rev p.p_tags })
      matches
  end

(* The compiled engine: same observable behavior (matches, order, tags,
   counters, trace events), driven by the plan's indexed store. *)
let feed_compiled t store ~ty ~timestamp ~tag =
  let out = Plan.step_type store ~ty ~timestamp ~tag in
  (match out.Plan.out_horizon_evicted with
  | 0 -> ()
  | n ->
      t.horizon_evicted <- t.horizon_evicted + n;
      Obs.add horizon_c n;
      if Obs.Trace.should_emit () then
        Obs.Trace.emit
          (Obs.Trace.Detector_evict { reason = Horizon; count = n }));
  if out.Plan.out_irrelevant then begin
    Obs.incr irrelevant_c;
    Obs.gauge_set live_g (Plan.live store);
    if Obs.Trace.should_emit () then
      Obs.Trace.emit (Obs.Trace.Detector_admit { live = Plan.live store });
    []
  end
  else begin
    (match out.Plan.out_capacity_evicted with
    | 0 -> ()
    | n ->
        t.dropped <- t.dropped + n;
        Obs.add capacity_c n;
        if Obs.Trace.should_emit () then
          Obs.Trace.emit
            (Obs.Trace.Detector_evict { reason = Capacity; count = n }));
    let live = Plan.live store in
    Obs.gauge_set live_g live;
    Obs.gauge_max peak_g live;
    if Obs.Trace.should_emit () then
      Obs.Trace.emit (Obs.Trace.Detector_admit { live });
    (* Every completion is a match: the plan decides Definition 2 exactly
       on the inputs [template] accepts (docs/DETECTION.md, "Why the plan
       needs no confirmation"), so nothing re-checks it here. *)
    let matches = out.Plan.out_matches in
    (match matches with
    | [] -> ()
    | _ ->
        let n = List.length matches in
        Obs.add matches_c n;
        if Obs.Trace.should_emit () then
          Obs.Trace.emit (Obs.Trace.Detector_match { count = n }));
    List.map (fun (tuple, tags) -> { tuple; tags = List.rev tags }) matches
  end

let step t ~ty ~timestamp ~tag =
  match t.state with
  | Naive_buffer buf ->
      let targets = if ty < 0 then [] else targets_of t t.types.(ty) in
      feed_naive t buf ~targets ~timestamp ~tag
  | Compiled_store store -> feed_compiled t store ~ty ~timestamp ~tag

let advance t timestamp =
  if timestamp < t.clock then
    invalid_arg "Detector.feed: timestamps must be non-decreasing";
  t.clock <- timestamp;
  Obs.incr fed_c

let feed_type t ~ty ~timestamp ~tag =
  advance t timestamp;
  (* the branch spares the untraced feed a closure *)
  if Obs.Trace.enabled_now () then
    Obs.Trace.with_trace "detector.feed" (fun () ->
        step t ~ty ~timestamp ~tag)
  else step t ~ty ~timestamp ~tag

let feed t inst =
  match t.state with
  | Naive_buffer buf ->
      (* The reference engine finds its targets by name: it shares no type
         lookup with the compiled plan it is tested against. *)
      advance t inst.timestamp;
      Obs.Trace.with_trace "detector.feed" (fun () ->
          feed_naive t buf
            ~targets:(targets_of t inst.event)
            ~timestamp:inst.timestamp ~tag:inst.tag)
  | Compiled_store _ ->
      feed_type t
        ~ty:
          (Plan.type_index t.types inst.event ~pos:0
             ~stop:(String.length inst.event))
        ~timestamp:inst.timestamp ~tag:inst.tag

let feed_all t instances = List.concat_map (feed t) instances
