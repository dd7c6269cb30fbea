open Whynot
module Detector = Cep.Detector
module Plan = Cep.Plan
module Compile = Cep.Compile
module Tuple = Events.Tuple

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p = Pattern.Parse.pattern_exn
let inst event timestamp tag = { Detector.event; timestamp; tag }

(* --- the compiled plan itself --- *)

let test_plan_shape () =
  let plan = Compile.plan [ p "SEQ(A, B) WITHIN 10" ] in
  check_bool "matrices materialized" true (Plan.matrix_count plan > 0);
  check_bool "no fallback when under the cap" true (plan.Plan.fallback = None);
  let fired = ref 0 in
  let forced =
    Compile.plan ~max_matrices:0
      ~on_fallback:(fun () -> incr fired)
      [ p "SEQ(A, B) WITHIN 10" ]
  in
  check_int "no matrices when forced over the cap" 0 (Plan.matrix_count forced);
  (match forced.Plan.fallback with
  | Some check ->
      check_bool "fallback accepts a feasible prefix" true
        (check (Tuple.of_list [ ("A", 0) ]));
      check_bool "fallback callback fired" true (!fired > 0)
  | None -> Alcotest.fail "expected a fallback closure");
  (* targets_of is shared with the naive engine: base event plus aliases *)
  let required = Pattern.Ast.events_of_set [ p "SEQ(A, REPEAT(B, 2)) WITHIN 9" ] in
  check_int "repeat aliases are targets of their base" 2
    (List.length (Compile.targets_of required "B"));
  check_int "plain event targets itself" 1
    (List.length (Compile.targets_of required "A"));
  check_int "unknown type has no targets" 0
    (List.length (Compile.targets_of required "Z"))

let test_engine_accessor () =
  let d = Detector.create [ p "SEQ(A, B) WITHIN 10" ] in
  check_bool "compiled is the default engine" true
    (Detector.engine d = Detector.Compiled);
  let dn = Detector.create ~engine:Detector.Naive [ p "SEQ(A, B) WITHIN 10" ] in
  check_bool "naive on request" true (Detector.engine dn = Detector.Naive)

(* --- differential fuzzing: the compiled engine against the naive oracle ---

   Random query sets and random streams (with irrelevant types, repeated
   timestamps, tight horizons and tiny capacities to force evictions);
   matches must be identical feed by feed — same tuples, same tags, same
   order — and every buffer counter must agree. *)

let query_set_gen st =
  let w lo span = lo + Random.State.int st span in
  match Random.State.int st 8 with
  | 0 -> [ Printf.sprintf "SEQ(A, B) WITHIN %d" (w 3 25) ]
  | 1 -> [ Printf.sprintf "SEQ(A, B, C) WITHIN %d" (w 5 35) ]
  | 2 -> [ Printf.sprintf "AND(A, B) WITHIN %d" (w 3 25) ]
  | 3 ->
      [
        Printf.sprintf "SEQ(AND(A, B) WITHIN %d, C) WITHIN %d" (w 2 10)
          (w 8 30);
      ]
  | 4 -> [ Printf.sprintf "SEQ(A, REPEAT(B, 2)) WITHIN %d" (w 5 35) ]
  | 5 ->
      [
        Printf.sprintf "AND(SEQ(A, B) WITHIN %d, C) WITHIN %d" (w 2 10)
          (w 8 30);
      ]
  | 6 ->
      let a = w 0 10 in
      [ Printf.sprintf "SEQ(A, B) ATLEAST %d WITHIN %d" a (a + w 1 20) ]
  | _ ->
      [
        Printf.sprintf "SEQ(A, B) WITHIN %d" (w 3 20);
        Printf.sprintf "AND(B, C) WITHIN %d" (w 3 20);
      ]

let stream_gen st =
  let len = 5 + Random.State.int st 14 in
  let ts = ref 0 in
  List.init len (fun i ->
      ts := !ts + Random.State.int st 5;
      let event =
        List.nth [ "A"; "B"; "C"; "X" ] (Random.State.int st 4)
      in
      inst event !ts (Printf.sprintf "i%d" i))

let case_gen : (string list * Detector.instance list * int) QCheck.Gen.t =
 fun st ->
  let queries = query_set_gen st in
  let stream = stream_gen st in
  let max_partials =
    if Random.State.bool st then 1 + Random.State.int st 8 else 4096
  in
  (queries, stream, max_partials)

let case =
  QCheck.make
    ~print:(fun (queries, stream, max_partials) ->
      Printf.sprintf "%s over %d instances, max_partials=%d"
        (String.concat " ; " queries)
        (List.length stream) max_partials)
    case_gen

(* Per-feed observable state: the matches (tuples and tags, in emission
   order) and the live-buffer size. *)
let run_detector d stream =
  List.map
    (fun i ->
      let ms = Detector.feed d i in
      ( List.map
          (fun (m : Detector.match_) -> (Tuple.bindings m.tuple, m.tags))
          ms,
        Detector.partial_count d ))
    stream

let prop_differential =
  QCheck.Test.make
    ~name:"compiled engine is bit-identical to the naive oracle" ~count:300
    case
    (fun (queries, stream, max_partials) ->
      let patterns = List.map p queries in
      match Detector.create ~engine:Detector.Naive ~max_partials patterns with
      | exception Invalid_argument _ ->
          (* e.g. a randomly inconsistent combined set: both engines must
             reject it identically *)
          (match
             Detector.create ~engine:Detector.Compiled ~max_partials patterns
           with
          | exception Invalid_argument _ -> true
          | _ -> false)
      | dn ->
          let dc =
            Detector.create ~engine:Detector.Compiled ~max_partials patterns
          in
          run_detector dn stream = run_detector dc stream
          && Detector.partial_count dn = Detector.partial_count dc
          && Detector.evicted_horizon dn = Detector.evicted_horizon dc
          && Detector.dropped_capacity dn = Detector.dropped_capacity dc)

(* {!Plan.step} driven directly, with no filter: per feed, the
   completions (tuples and tags, in emission order) and the live count,
   then both eviction totals. *)
let run_plan ?max_matrices patterns ~horizon ~max_partials stream =
  let plan = Compile.plan ?max_matrices patterns in
  let store = Plan.create_store ~horizon ~max_partials plan in
  let horizon_total = ref 0 and capacity_total = ref 0 in
  let per_feed =
    List.map
      (fun (i : Detector.instance) ->
        let out =
          Plan.step store ~event:i.event ~timestamp:i.timestamp ~tag:i.tag
        in
        horizon_total := !horizon_total + out.Plan.out_horizon_evicted;
        capacity_total := !capacity_total + out.Plan.out_capacity_evicted;
        ( List.map
            (fun (t, tags) -> (Tuple.bindings t, List.rev tags))
            out.Plan.out_matches,
          Plan.live store ))
      stream
  in
  (per_feed, !horizon_total, !capacity_total)

(* The same differential with the matrix cap forced to zero, so every
   feasibility test goes through the fallback closure (the path large
   binding spaces take in production). *)
let run_fallback_plan patterns = run_plan ~max_matrices:0 patterns

let prop_fallback_differential =
  QCheck.Test.make
    ~name:"forced-fallback plan is bit-identical to the naive oracle"
    ~count:150 case
    (fun (queries, stream, max_partials) ->
      let patterns = List.map p queries in
      match Detector.create ~engine:Detector.Naive ~max_partials patterns with
      | exception Invalid_argument _ -> true
      | dn ->
          let horizon =
            (* replicate the detector's default so both sides agree *)
            List.fold_left
              (fun acc q ->
                match q with
                | Pattern.Ast.Event _ -> acc
                | Pattern.Ast.Seq (_, w) | Pattern.Ast.And (_, w) ->
                    max acc (Option.value w.Pattern.Ast.within ~default:0))
              0 patterns
          in
          let plan_run, plan_horizon, plan_capacity =
            run_fallback_plan patterns ~horizon ~max_partials stream
          in
          run_detector dn stream = plan_run
          && Detector.evicted_horizon dn = plan_horizon
          && Detector.dropped_capacity dn = plan_capacity)

(* --- capacity at scale ---

   Regression for two sized-buffer hazards: the naive engine's capacity
   truncation must not be stack-bound (its [take] recursion depth is the
   configured capacity), and the compiled store must keep up when the
   buffer holds ~10^5 partials and sheds tens of thousands (its evictions
   pop queue fronts, O(evicted), never a full-buffer rebuild). The two
   engines must agree on every counter and every match at that scale. *)

let test_large_capacity_compiled () =
  let n = 400 and cap = 100_000 in
  let d =
    Detector.create ~max_partials:cap [ p "AND(A, B, C) WITHIN 2000" ]
  in
  check_bool "compiled engine" true (Detector.engine d = Detector.Compiled);
  for i = 0 to n - 1 do
    ignore (Detector.feed d (inst "A" i (Printf.sprintf "a%d" i)))
  done;
  for i = 0 to n - 1 do
    ignore (Detector.feed d (inst "B" (n + i) (Printf.sprintf "b%d" i)))
  done;
  (* n + n singletons and n*n A+B pairs overflow the capacity *)
  check_int "buffer pinned at capacity" cap (Detector.partial_count d);
  check_bool "capacity eviction exercised" true
    (Detector.dropped_capacity d > 0);
  check_int "nothing horizon-evicted inside the window" 0
    (Detector.evicted_horizon d);
  let matches = Detector.feed d (inst "C" (2 * n) "c0") in
  check_bool "surviving pairs complete" true (List.length matches > 0)

let test_large_capacity_engines_agree () =
  let n = 90 and cap = 6_000 in
  let query = [ p "AND(A, B, C) WITHIN 2000" ] in
  let feed_all d =
    let total = ref 0 in
    for i = 0 to n - 1 do
      total :=
        !total + List.length (Detector.feed d (inst "A" i (Printf.sprintf "a%d" i)))
    done;
    for i = 0 to n - 1 do
      total :=
        !total
        + List.length (Detector.feed d (inst "B" (n + i) (Printf.sprintf "b%d" i)))
    done;
    total := !total + List.length (Detector.feed d (inst "C" (2 * n) "c0"));
    !total
  in
  let dn = Detector.create ~engine:Detector.Naive ~max_partials:cap query in
  let dc = Detector.create ~engine:Detector.Compiled ~max_partials:cap query in
  let mn = feed_all dn and mc = feed_all dc in
  check_bool "overflow actually happened" true (Detector.dropped_capacity dn > 0);
  check_int "same matches" mn mc;
  check_int "same live buffer" (Detector.partial_count dn)
    (Detector.partial_count dc);
  check_int "same capacity drops" (Detector.dropped_capacity dn)
    (Detector.dropped_capacity dc);
  check_int "same horizon evictions" (Detector.evicted_horizon dn)
    (Detector.evicted_horizon dc)

(* --- an assignment wider than one machine word ---

   The fuzz above draws at most four pattern events. Sixty-six distinct
   events need more bits than one machine word holds, so a bitset that
   fit in one word would alias events 64 and up onto others. The
   compiled store (with matrices, and forced onto the fallback) must
   still replay the naive oracle exactly. The stream keeps the oracle cheap: one
   in-order run (with a duplicate first event, so two chains compete)
   that completes, then a gap past the horizon and a short second run. *)
let test_wide_assignment () =
  let n = 66 and horizon = 200 and max_partials = 6 in
  let name k = Printf.sprintf "E%d" k in
  let patterns =
    [
      p
        (Printf.sprintf "SEQ(%s) WITHIN %d"
           (String.concat ", " (List.init n (fun k -> name (k + 1))))
           horizon);
    ]
  in
  let stream =
    (inst "X" 0 "x0" :: inst "E1" 1 "a1" :: inst "E1" 2 "b1"
    :: List.init (n - 1) (fun k ->
           inst (name (k + 2)) (k + 3) (Printf.sprintf "a%d" (k + 2))))
    @ inst "X" 500 "x1"
      :: List.init 8 (fun k ->
             inst (name (k + 1)) (501 + k) (Printf.sprintf "c%d" (k + 1)))
  in
  let plan = Compile.plan patterns in
  check_bool "assignment wider than a machine word" true
    (Array.length plan.Plan.events > Sys.int_size);
  let dn = Detector.create ~engine:Detector.Naive ~max_partials patterns in
  let dc = Detector.create ~engine:Detector.Compiled ~max_partials patterns in
  let naive = run_detector dn stream and compiled = run_detector dc stream in
  check_bool "the in-order run completes" true
    (List.exists (fun (ms, _) -> ms <> []) naive);
  check_bool "capacity eviction exercised" true
    (Detector.dropped_capacity dn > 0);
  check_bool "horizon eviction exercised" true
    (Detector.evicted_horizon dn > 0);
  check_bool "compiled: same matches, tags and live counts" true
    (naive = compiled);
  check_int "compiled: same horizon evictions" (Detector.evicted_horizon dn)
    (Detector.evicted_horizon dc);
  check_int "compiled: same capacity evictions" (Detector.dropped_capacity dn)
    (Detector.dropped_capacity dc);
  let fallback, fb_horizon, fb_capacity =
    run_fallback_plan patterns ~horizon ~max_partials stream
  in
  check_bool "fallback: same matches, tags and live counts" true
    (naive = fallback);
  check_int "fallback: same horizon evictions" (Detector.evicted_horizon dn)
    fb_horizon;
  check_int "fallback: same capacity evictions" (Detector.dropped_capacity dn)
    fb_capacity

(* --- exactness at the edges: completions with no filter ---

   The compiled engine emits what [Plan.step] completes; nothing
   re-checks it. docs/DETECTION.md proves each completion a match on the
   inputs [Detector.template] accepts (window bounds and horizon at most
   [Events.Time.max_span]). These properties drive [Plan.step] directly,
   with matrices and forced onto the fallback, apply no filter, and check
   every completion against [Pattern.Matcher] and every feed against the
   [Naive] engine. The generators aim at the edges of the time-window
   semantics: equal timestamps, gaps that hit a bound exactly and miss it
   by one, ATLEAST = WITHIN, eviction at the horizon, timestamps near and
   beyond +-[Tcn.Weight.inf], bounds near the limit, horizons up to and
   past it, AND nested in SEQ, REPEAT. *)

let max_span = Events.Time.max_span
let weight_inf = Tcn.Weight.inf
let sat_add = Tcn.Weight.sat_add

type edge_case = {
  queries : string list;
  horizon : int option;  (** [None]: the template infers it *)
  stream : Detector.instance list;
  max_partials : int;
}

let pick st l = List.nth l (Random.State.int st (List.length l))

(* a window bound: small, or a few units below the limit *)
let bound_gen st =
  let k = Random.State.int st 6 in
  if Random.State.int st 5 = 0 then max_span - k else k

let edge_gen st =
  let a = bound_gen st in
  let b =
    (* ATLEAST = WITHIN one time in three *)
    if Random.State.int st 3 = 0 then a
    else min max_span (a + Random.State.int st 6)
  in
  let c = bound_gen st in
  let w = Printf.sprintf "ATLEAST %d WITHIN %d" a b in
  let outer = max b c in
  let queries, root_within =
    match Random.State.int st 10 with
    | 0 -> ([ Printf.sprintf "SEQ(A, B) %s" w ], true)
    | 1 -> ([ Printf.sprintf "AND(A, B) %s" w ], true)
    | 2 -> ([ Printf.sprintf "SEQ(AND(A, B) %s, C) WITHIN %d" w outer ], true)
    | 3 ->
        ([ Printf.sprintf "SEQ(A, AND(B, C) ATLEAST %d) WITHIN %d" a outer ],
         true)
    | 4 -> ([ Printf.sprintf "SEQ(A, REPEAT(B, 2)) %s" w ], true)
    | 5 -> ([ Printf.sprintf "REPEAT(A, 3) %s" w ], true)
    | 6 -> ([ Printf.sprintf "AND(SEQ(A, B) %s, C) WITHIN %d" w outer ], true)
    | 7 ->
        ( [ Printf.sprintf "SEQ(A, B) %s" w;
            Printf.sprintf "AND(B, C) WITHIN %d" c ],
          true )
    | 8 -> ([ Printf.sprintf "SEQ(A, B) ATLEAST %d" a ], false)
    | _ ->
        ( [ Printf.sprintf "AND(SEQ(A, B) WITHIN %d, C) ATLEAST %d" b a ],
          false )
  in
  let horizon =
    if root_within && Random.State.int st 3 = 0 then None
    else
      Some
        (pick st
           [ b; sat_add b 1; max 0 (b - 1); outer; max_span - 1; max_span;
             max_span + 1; weight_inf; max_int ])
  in
  (* gaps that hit each bound exactly and miss it by one either way *)
  let gaps =
    List.filter (fun g -> g >= 0)
      [ 0; 0; 1; a - 1; a; sat_add a 1; b - 1; b; sat_add b 1; c;
        sat_add c 1 ]
  in
  let start =
    pick st
      [ 0; 7; -weight_inf - 3; weight_inf - 3; (min_int / 2) - 10;
        max_int - 40; min_int; min_int + 5 ]
  in
  let len = 4 + Random.State.int st 9 in
  let t = ref start in
  let stream =
    List.init len (fun i ->
        (if i > 0 then
           match Random.State.int st 8 with
           | 0 ->
               (* a jump: past the limit, to beyond +inf, to the top *)
               t :=
                 max !t
                   (pick st
                      [ sat_add !t max_span; sat_add !t (max_span + 1);
                        (max_int / 2) + 10; weight_inf + 3; max_int - 3 ])
           | _ -> t := sat_add !t (pick st gaps));
        let event = pick st [ "A"; "A"; "B"; "B"; "C"; "X" ] in
        inst event !t (Printf.sprintf "i%d" i))
  in
  let max_partials =
    if Random.State.int st 4 = 0 then 1 + Random.State.int st 5 else 4096
  in
  { queries; horizon; stream; max_partials }

let print_edge_case c =
  Printf.sprintf "%s, horizon %s, max_partials %d, stream [%s]"
    (String.concat " ; " c.queries)
    (match c.horizon with None -> "inferred" | Some h -> string_of_int h)
    c.max_partials
    (String.concat "; "
       (List.map
          (fun (i : Detector.instance) ->
            Printf.sprintf "%s@%d" i.event i.timestamp)
          c.stream))

let edge_case = QCheck.make ~print:print_edge_case edge_gen

let completions_match patterns per_feed =
  List.for_all
    (fun (ms, _) ->
      List.for_all
        (fun (bindings, _) ->
          Pattern.Matcher.matches_set (Tuple.of_list bindings) patterns)
        ms)
    per_feed

(* What one accepted case shows: the naive engine's feeds and counters,
   and the plan's, with matrices and forced onto the fallback. *)
let edge_runs c =
  let patterns = List.map p c.queries in
  match
    Detector.template ?horizon:c.horizon ~max_partials:c.max_partials
      patterns
  with
  | exception Invalid_argument _ -> None
  | tpl ->
      let horizon = Detector.template_horizon tpl in
      let naive =
        Detector.create ~engine:Detector.Naive ~horizon
          ~max_partials:c.max_partials patterns
      in
      let want = run_detector naive c.stream in
      let plans =
        List.map
          (fun max_matrices ->
            run_plan ~max_matrices patterns ~horizon
              ~max_partials:c.max_partials c.stream)
          [ Compile.max_matrices; 0 ]
      in
      Some
        ( patterns,
          (want, Detector.evicted_horizon naive, Detector.dropped_capacity naive),
          plans )

let prop_edges =
  QCheck.Test.make ~name:"plan completions are matches at the edges"
    ~count:500 edge_case (fun c ->
      match edge_runs c with
      | None -> true (* the template rejects the query or the horizon *)
      | Some (patterns, naive, plans) ->
          List.for_all
            (fun ((per_feed, _, _) as run) ->
              completions_match patterns per_feed && run = naive)
            plans)

(* The generator reaches the edges it aims at: on the property's cases,
   completions are checked on both plans, some of them at timestamps
   beyond +-[Tcn.Weight.inf], some at a span of exactly a window bound;
   the horizon is hit at the limit, and past it the template rejects. *)
let test_edge_coverage () =
  let st = Random.State.make [| 20210620 |] in
  let completions = ref 0 and beyond_inf = ref 0 and exact_bound = ref 0 in
  let at_limit = ref 0 and rejected_past = ref 0 and evicted = ref 0 in
  for _ = 1 to 500 do
    let c = edge_gen st in
    match edge_runs c with
    | None -> (
        match c.horizon with
        | Some h when h > max_span -> incr rejected_past
        | _ -> ())
    | Some (patterns, (want, ev, _), _) ->
        if c.horizon = Some max_span then incr at_limit;
        evicted := !evicted + ev;
        let root_bounds =
          List.concat_map
            (function
              | Pattern.Ast.Seq (_, w) | Pattern.Ast.And (_, w) ->
                  List.filter_map Fun.id
                    [ w.Pattern.Ast.atleast; w.Pattern.Ast.within ]
              | Pattern.Ast.Event _ -> [])
            patterns
        in
        List.iter
          (fun (ms, _) ->
            List.iter
              (fun (bindings, _) ->
                incr completions;
                let ts = List.map snd bindings in
                let lo = List.fold_left min max_int ts
                and hi = List.fold_left max min_int ts in
                if lo < -weight_inf || hi > weight_inf then incr beyond_inf;
                if hi > lo && List.mem (hi - lo) root_bounds then
                  incr exact_bound)
              ms)
          want
  done;
  let at_least what n v =
    check_bool (Printf.sprintf "%s (%d)" what v) true (v >= n)
  in
  at_least "completions checked" 100 !completions;
  at_least "completions beyond +-inf" 1 !beyond_inf;
  at_least "completions spanning a root bound exactly" 1 !exact_bound;
  at_least "cases accepted at the limit" 1 !at_limit;
  at_least "horizons past the limit rejected" 1 !rejected_past;
  at_least "horizon evictions" 1 !evicted

(* --- the domain: what the template accepts --- *)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_bound_above_limit () =
  let q = "SEQ(A, B) ATLEAST 1729382256910270462 WITHIN 2305843009213693950" in
  check_bool "the parser rejects it" true
    (Result.is_error (Pattern.Parse.pattern q));
  check_bool "a unit that overflows is rejected too" true
    (Result.is_error
       (Pattern.Parse.pattern "SEQ(A, B) WITHIN 1537228672809129302 hours"));
  let ast =
    Pattern.Ast.seq ~atleast:1729382256910270462 ~within:2305843009213693950
      [ Pattern.Ast.event "A"; Pattern.Ast.event "B" ]
  in
  check_bool "validation names the bound" true
    (Pattern.Ast.validate ast
    = Error (Pattern.Ast.Bound_above_limit 1729382256910270462));
  check_bool "Detector.create raises Invalid_argument" true
    (raises_invalid (fun () -> Detector.create [ ast ]));
  check_bool "Pipeline.explain raises Invalid_argument" true
    (raises_invalid (fun () ->
         Explain.Pipeline.explain [ ast ] (Tuple.of_list [ ("A", 0); ("B", 1) ])));
  let at_limit =
    Pattern.Ast.seq ~atleast:max_span ~within:max_span
      [ Pattern.Ast.event "A"; Pattern.Ast.event "B" ]
  in
  check_bool "a bound at the limit is valid" true
    (Pattern.Ast.validate at_limit = Ok ());
  check_bool "one past it is not" true
    (Result.is_error
       (Pattern.Ast.validate
          (Pattern.Ast.seq ~within:(max_span + 1)
             [ Pattern.Ast.event "A"; Pattern.Ast.event "B" ])))

(* With [~horizon:max_int], SEQ(A, B) ATLEAST 5 fed A at min_int/2 - 10 and
   B at max_int/2 + 10 used to complete in the plan (the saturated
   difference fits the matrix) while the matcher's [stop - start] wrapped
   and turned it down. *)
let test_horizon_above_limit () =
  let patterns = [ p "SEQ(A, B) ATLEAST 5" ] in
  List.iter
    (fun h ->
      check_bool
        (Printf.sprintf "horizon %d rejected" h)
        true
        (raises_invalid (fun () -> Detector.create ~horizon:h patterns)))
    [ max_span + 1; weight_inf; max_int ];
  let d = Detector.create ~horizon:max_span patterns in
  ignore (Detector.feed d (inst "A" ((min_int / 2) - 10) "a"));
  let ms = Detector.feed d (inst "B" ((max_int / 2) + 10) "b") in
  check_int "no match across a 2^62 jump" 0 (List.length ms);
  check_int "the A partial is evicted" 1 (Detector.evicted_horizon d)

(* The naive engine cut with [timestamp - earliest <= horizon], which
   wraps on a jump of 2^62 or more: it kept the A partial alive while the
   compiled store (saturating) evicted it. Both engines also cut one unit
   late from [earliest = min_int], where [neg min_int] is [max_int]. *)
let test_naive_cut_saturates () =
  let patterns = [ p "SEQ(A, B) WITHIN 100" ] in
  let cut engine ~a ~x =
    let d = Detector.create ~engine patterns in
    ignore (Detector.feed d (inst "A" a "a"));
    ignore (Detector.feed d (inst "X" x "x"));
    (Detector.partial_count d, Detector.evicted_horizon d)
  in
  List.iter
    (fun engine ->
      let name = if engine = Detector.Naive then "naive" else "compiled" in
      let live, evicted =
        cut engine ~a:((min_int / 2) - 10) ~x:((max_int / 2) + 10)
      in
      check_int (name ^ ": live after a 2^62 jump") 0 live;
      check_int (name ^ ": evicted after a 2^62 jump") 1 evicted;
      check_int (name ^ ": kept at the horizon from min_int") 1
        (fst (cut engine ~a:min_int ~x:(min_int + 100)));
      check_int (name ^ ": evicted one past it") 1
        (snd (cut engine ~a:min_int ~x:(min_int + 101))))
    [ Detector.Naive; Detector.Compiled ]

(* [sat_add a (neg b)] is one short at [b = min_int] ([neg min_int] is
   [max_int]). The plan's differences used it, so B@min_int, A@min_int
   read A - B = -1 and fitted the AND's ATLEAST 1 binding; with C the
   plan completed a non-match. Interval checks read the same -1. *)
let test_differences_at_min_int () =
  let patterns = [ p "SEQ(AND(A, B) ATLEAST 1 WITHIN 5, C) WITHIN 10" ] in
  let stream =
    [ inst "B" min_int "b"; inst "A" min_int "a"; inst "C" (min_int + 2) "c" ]
  in
  let naive =
    run_detector (Detector.create ~engine:Detector.Naive patterns) stream
  in
  List.iter
    (fun max_matrices ->
      let per_feed, _, _ =
        run_plan ~max_matrices patterns ~horizon:10 ~max_partials:16 stream
      in
      check_bool
        (Printf.sprintf "max_matrices %d: the naive engine's feeds"
           max_matrices)
        true (per_feed = naive))
    [ Compile.max_matrices; 0 ];
  check_bool "no completion" true (List.for_all (fun (ms, _) -> ms = []) naive);
  check_bool "an exact interval holds at min_int" true
    (Tcn.Condition.interval_holds
       (Tuple.of_list [ ("A", min_int); ("B", min_int) ])
       (Tcn.Condition.exact "A" "B"))

(* Why the limit sits one below [Tcn.Weight.inf]: at a span of exactly
   [inf], the fallback's pinned difference [inf] reads as unbounded, and
   SEQ(A, C) ATLEAST inf ; SEQ(B, A) fed B@0, A@1, C@inf completed in the
   forced-fallback plan although C - A = inf - 1 (the matrices and the
   matcher both turn it down). One unit lower, the same shape completes
   nowhere. *)
let test_fallback_at_the_limit () =
  let patterns =
    [ p (Printf.sprintf "SEQ(A, C) ATLEAST %d" max_span); p "SEQ(B, A)" ]
  in
  check_bool "horizon inf rejected" true
    (raises_invalid (fun () -> Detector.create ~horizon:weight_inf patterns));
  let stream = [ inst "B" 0 "b"; inst "A" 1 "a"; inst "C" max_span "c" ] in
  List.iter
    (fun max_matrices ->
      let per_feed, _, _ =
        run_plan ~max_matrices patterns ~horizon:max_span ~max_partials:16
          stream
      in
      check_bool
        (Printf.sprintf "max_matrices %d: no completion" max_matrices)
        true
        (List.for_all (fun (ms, _) -> ms = []) per_feed))
    [ Compile.max_matrices; 0 ];
  (* and C one unit later completes with A, as the matcher says *)
  let later = [ inst "B" 1 "b"; inst "A" 1 "a"; inst "C" (max_span + 1) "c" ] in
  let per_feed, _, _ =
    run_plan ~max_matrices:0 patterns ~horizon:max_span ~max_partials:16 later
  in
  check_bool "C - A = limit completes" true
    (List.exists (fun (ms, _) -> ms <> []) per_feed
    && completions_match patterns per_feed)

(* --- the template's consistency verdict ---

   [Detector.template] reads a plan's matrices instead of running the
   separate check: a plan without fallback is consistent iff it kept one.
   On random query sets shaped like test/gen.ml's, that verdict, the
   forced fallback's check on the empty assignment and both engines'
   templates agree with [Consistency.check]. *)
let query_set_agreement =
  QCheck.make
    ~print:(fun ps -> String.concat " ; " (List.map Pattern.Ast.to_string ps))
    (fun st ->
      List.init
        (1 + Random.State.int st 2)
        (fun _ -> Gen.pattern_gen ~max_events:5 () st))

let prop_verdict_agreement =
  QCheck.Test.make ~name:"template verdict = consistency check" ~count:300
    query_set_agreement (fun ps ->
      let consistent =
        (Explain.Consistency.check ~strategy:Explain.Consistency.Pruned ps)
          .consistent
      in
      let plan = Compile.plan ps in
      let accepts engine =
        match Detector.template ~engine ~horizon:1000 ps with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      (plan.Plan.fallback <> None || Plan.matrix_count plan > 0 = consistent)
      && (match (Compile.plan ~max_matrices:0 ps).Plan.fallback with
         | Some check -> check Tuple.empty = consistent
         | None -> false)
      && accepts Detector.Compiled = consistent
      && accepts Detector.Naive = consistent)

(* {!Plan.type_index} against a linear scan with [String.equal]. Names
   come from a small alphabet holding bytes on both sides of 0x80, so the
   sorted arrays hold the empty name, names that are prefixes of others
   and names that differ in a high byte; the name sought is cut from the
   middle of a longer string, at [pos > 0] when there is a prefix. *)
let type_index_case =
  let open QCheck.Gen in
  let name =
    string_size
      ~gen:(oneofl [ 'A'; 'B'; 'a'; '\000'; '\127'; '\128'; '\255' ])
      (int_bound 4)
  in
  list_size (int_bound 10) name >>= fun names ->
  (if names = [] then name else oneof [ name; oneofl names ]) >>= fun sought ->
  pair name name >|= fun (before, after) -> (names, sought, before, after)

let prop_type_index =
  QCheck.Test.make ~name:"type_index = linear scan of the sorted names"
    ~count:1000
    (QCheck.make
       ~print:(fun (names, sought, before, after) ->
         Printf.sprintf "names [%s], %S in %S"
           (String.concat "; " (List.map (Printf.sprintf "%S") names))
           sought (before ^ sought ^ after))
       type_index_case)
    (fun (names, sought, before, after) ->
      let types = Array.of_list (List.sort_uniq String.compare names) in
      let linear =
        let rec go i =
          if i = Array.length types then -1
          else if String.equal types.(i) sought then i
          else go (i + 1)
        in
        go 0
      in
      let pos = String.length before in
      Plan.type_index types (before ^ sought ^ after) ~pos
        ~stop:(pos + String.length sought)
      = linear)

let test_type_index_edges () =
  let types = [| ""; "A"; "AB"; "B"; "\128"; "\128A"; "\255" |] in
  Array.iteri
    (fun i name ->
      check_int (Printf.sprintf "%S found" name) i
        (Plan.type_index types ("x" ^ name ^ "AB") ~pos:1
           ~stop:(1 + String.length name)))
    types;
  List.iter
    (fun name ->
      check_int (Printf.sprintf "%S absent" name) (-1)
        (Plan.type_index types name ~pos:0 ~stop:(String.length name)))
    [ "AA"; "ABC"; "\127"; "\128B"; "\254"; "a" ];
  check_int "nothing in an empty array" (-1)
    (Plan.type_index [||] "A" ~pos:0 ~stop:1)

let suite =
  ( "plan",
    [
      Alcotest.test_case "plan shape and fallback" `Quick test_plan_shape;
      Alcotest.test_case "engine accessor" `Quick test_engine_accessor;
      Gen.qt prop_differential;
      Gen.qt prop_fallback_differential;
      Alcotest.test_case "compiled store at 10^5 partials" `Quick
        test_large_capacity_compiled;
      Alcotest.test_case "engines agree under capacity pressure" `Quick
        test_large_capacity_engines_agree;
      Alcotest.test_case "66 pattern events: engines agree" `Quick
        test_wide_assignment;
      Gen.qt prop_edges;
      Alcotest.test_case "edge generators reach the edges" `Quick
        test_edge_coverage;
      Alcotest.test_case "window bound above the limit rejected" `Quick
        test_bound_above_limit;
      Alcotest.test_case "horizon above the limit rejected" `Quick
        test_horizon_above_limit;
      Alcotest.test_case "naive horizon cut saturates" `Quick
        test_naive_cut_saturates;
      Alcotest.test_case "differences exact at min_int" `Quick
        test_differences_at_min_int;
      Alcotest.test_case "fallback exact at the limit" `Quick
        test_fallback_at_the_limit;
      Gen.qt prop_verdict_agreement;
      Gen.qt prop_type_index;
      Alcotest.test_case "type_index: prefixes, empty and high bytes" `Quick
        test_type_index_edges;
    ] )
