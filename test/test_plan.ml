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

(* The same differential, driving {!Plan.step} directly with the matrix
   cap forced to zero so every feasibility test goes through the fallback
   closure (the path large binding spaces take in production). *)
let run_fallback_plan patterns ~horizon ~max_partials stream =
  let plan = Compile.plan ~max_matrices:0 patterns in
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
        let ms =
          List.filter
            (fun (t, _) -> Pattern.Matcher.matches_set t patterns)
            out.Plan.out_matches
        in
        ( List.map (fun (t, tags) -> (Tuple.bindings t, List.rev tags)) ms,
          Plan.live store ))
      stream
  in
  (per_feed, !horizon_total, !capacity_total)

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
    ] )
