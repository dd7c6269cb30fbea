open Whynot
module Pipeline = Explain.Pipeline
module Tuple = Events.Tuple

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p = Pattern.Parse.pattern_exn

let p0 = p "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 120"
let t1 = Tuple.of_list [ ("E1", 1028); ("E2", 1138); ("E3", 1045); ("E4", 1153) ]
let t2 = Tuple.of_list [ ("E1", 1026); ("E2", 1134); ("E3", 1044); ("E4", 1208) ]

let test_already_answer () =
  check_bool "matching tuple" true (Pipeline.explain [ p0 ] t1 = Pipeline.Already_answer)

let test_inconsistent_route () =
  let bad = p "SEQ(AND(E1, E3) ATLEAST 30, AND(E2, E4) ATLEAST 30) WITHIN 45" in
  match Pipeline.explain [ bad ] t2 with
  | Pipeline.Inconsistent_query r -> check_bool "flagged" false r.consistent
  | _ -> Alcotest.fail "expected Inconsistent_query"

let test_timestamp_route () =
  match Pipeline.explain [ p0 ] t2 with
  | Pipeline.Modify_timestamps r -> check_int "cost 44" 44 r.Explain.Modification.cost
  | _ -> Alcotest.fail "expected Modify_timestamps"

let test_budget_falls_back_to_query_repair () =
  match Pipeline.explain ~max_cost:10 [ p0 ] t2 with
  | Pipeline.Modify_query qr ->
      check_int "window widening 44" 44 qr.Explain.Query_repair.cost;
      check_bool "repaired query accepts t2" true
        (Pattern.Matcher.matches_set t2 qr.patterns)
  | _ -> Alcotest.fail "expected Modify_query"

let test_budget_generous_keeps_timestamps () =
  match Pipeline.explain ~max_cost:100 [ p0 ] t2 with
  | Pipeline.Modify_timestamps _ -> ()
  | _ -> Alcotest.fail "expected Modify_timestamps under a sufficient budget"

let test_no_explanation () =
  (* Order violated AND over budget: windows cannot fix event order. *)
  let q = p "SEQ(E1, E2) WITHIN 10" in
  let t = Tuple.of_list [ ("E1", 500); ("E2", 0) ] in
  match Pipeline.explain ~max_cost:3 [ q ] t with
  | Pipeline.No_explanation -> ()
  | o -> Alcotest.failf "expected No_explanation, got %a" Pipeline.pp_outcome o

let prop_pipeline_total =
  QCheck.Test.make ~name:"pipeline always yields a coherent outcome" ~count:150
    (Gen.pattern_and_tuple ~horizon:120 ()) (fun (pat, t) ->
      match Pipeline.explain [ pat ] t with
      | Pipeline.Already_answer -> Pattern.Matcher.matches t pat
      | Pipeline.Inconsistent_query r -> not r.Explain.Consistency.consistent
      | Pipeline.Modify_timestamps r ->
          Pattern.Matcher.matches r.Explain.Modification.repaired pat
      | Pipeline.Modify_query _ -> false (* no budget given: never this route *)
      | Pipeline.No_explanation -> false (* Full strategy finds any feasible repair *))

(* --- Prepared queries ---

   [Pipeline.explain] prepares a pattern-set value once per domain and
   reuses it while the value stays among the domain's [capacity] most
   recent ones. A prepared call must return what the uncached call
   returns, down to the bindings tried and the simplex pivots. *)

module Modification = Explain.Modification

let counter name = Option.value ~default:0 (Obs.find_counter name)

let with_pivots f =
  let before = counter "simplex.pivots" in
  let x = f () in
  (x, counter "simplex.pivots" - before)

(* A seeded sample of faulted RTFM cases and Flight days of 4 and 6 events,
   each with its query's one shared pattern-set value. *)
let prepared_sample () =
  let prng = Numeric.Prng.create 41 in
  let rtfm =
    Datagen.Rtfm.generate prng ~tuples:16
    |> Datagen.Faults.trace prng ~rate:0.5 ~distance:2000
  in
  let f4 = Datagen.Flight.generate prng ~num_events:4 ~days:4 in
  let f6 = Datagen.Flight.generate prng ~num_events:6 ~days:1 in
  List.concat_map
    (fun (ps, tr) -> List.map (fun (_, t) -> (ps, t)) (Events.Trace.bindings tr))
    [ (Datagen.Rtfm.patterns, rtfm); ([ f4.pattern ], f4.observed);
      ([ f6.pattern ], f6.observed) ]

let show_result = function
  | None -> "none"
  | Some { Modification.repaired; cost; bindings_tried; exact } ->
      Format.asprintf "%d %b %a [%d]" cost exact Tuple.pp repaired
        bindings_tried

let show_outcome o =
  match o with
  | Pipeline.Modify_timestamps r ->
      Format.asprintf "timestamps %s" (show_result (Some r))
  | o -> Format.asprintf "%a" Pipeline.pp_outcome o

let test_prepared_agrees () =
  let sample = prepared_sample () in
  let compared = ref 0 in
  let agree what (a, pa) (b, pb) =
    incr compared;
    Alcotest.(check string) what a b;
    check_int (what ^ ": simplex pivots") pa pb
  in
  (* Through the pipeline: the shared value hits the domain's cache after
     its first call; a fresh [prepare] per call is the uncached run. *)
  List.iter
    (fun (ps, t) ->
      List.iter
        (fun (strategy, solver, max_cost) ->
          let run f = with_pivots (fun () -> show_outcome (f ())) in
          agree "pipeline"
            (run (fun () ->
                 Pipeline.explain_prepared ~strategy ~solver ?max_cost
                   (Pipeline.prepare ps) t))
            (run (fun () -> Pipeline.explain ~strategy ~solver ?max_cost ps t)))
        [ (Modification.Full, Modification.Lp, None);
          (Modification.Single, Modification.Lp, None);
          (Modification.Sampled 3, Modification.Lp, None);
          (Modification.Full, Modification.Flow, None);
          (Modification.Full, Modification.Lp, Some 10);
          (Modification.Single, Modification.Lp, Some 10) ])
    sample;
  (* Weights, bounds and the flat sweep reach [Modification], not the
     pipeline: one prepared value per query, reused by every tuple, against
     the uncached call. *)
  let weights e = 1 + (Char.code e.[String.length e - 1] mod 3) in
  let bounds e = Some (40 + (20 * (Char.code e.[0] mod 4))) in
  let prepared = ref [] in
  let prepared_of ps =
    match List.assq_opt ps !prepared with
    | Some m -> m
    | None ->
        let m = Modification.prepare ps in
        prepared := (ps, m) :: !prepared;
        m
  in
  List.iter
    (fun (ps, t) ->
      if not (Pattern.Matcher.matches_set t ps) then
        List.iter
          (fun (strategy, engine, solver, weights, bounds) ->
            let run f = with_pivots (fun () -> show_result (f ())) in
            agree "modification"
              (run (fun () ->
                   Modification.explain ~strategy ~engine ~solver ?weights
                     ?bounds ps t))
              (run (fun () ->
                   Modification.explain_prepared ~strategy ~engine ~solver
                     ?weights ?bounds (prepared_of ps) t)))
          [ (Modification.Full, Modification.Bnb, Modification.Lp,
             Some weights, None);
            (Modification.Full, Modification.Bnb, Modification.Lp, None,
             Some bounds);
            (Modification.Full, Modification.Bnb, Modification.Flow,
             Some weights, Some bounds);
            (Modification.Full, Modification.Flat, Modification.Lp,
             Some weights, Some bounds);
            (Modification.Sampled 3, Modification.Flat, Modification.Lp,
             Some weights, Some bounds) ])
    sample;
  (* 21 tuples on 6 pipeline routes, and the 13 non-answers among them on
     5 modification routes *)
  check_int "the sample reaches every route" 191 !compared

let test_prepared_cache () =
  let q = p "SEQ(E1, E2) WITHIN 10" in
  let t = Tuple.of_list [ ("E1", 0); ("E2", 50) ] in
  (* nine distinct values of one query: a structural copy is a new key *)
  let values = Array.init (Pipeline.capacity + 1) (fun _ -> [ q ]) in
  let deltas f =
    let prepares = counter "pipeline.prepares"
    and checks = counter "consistency.checks"
    and pushes = counter "stn_inc.pushes" in
    let o = f () in
    ( Format.asprintf "%a" Pipeline.pp_outcome o,
      counter "pipeline.prepares" - prepares,
      counter "consistency.checks" - checks,
      counter "stn_inc.pushes" - pushes )
  in
  let explain i = deltas (fun () -> Pipeline.explain values.(i) t) in
  let expect what (want_prep, want_checks) (_, prep, checks, _) =
    check_int (what ^ ": prepares") want_prep prep;
    check_int (what ^ ": consistency checks") want_checks checks
  in
  let first, _, _, miss_pushes = explain 0 in
  for i = 1 to Pipeline.capacity - 1 do
    expect (Printf.sprintf "fill %d" i) (1, 1) (explain i)
  done;
  let again, _, _, hit_pushes = explain 0 in
  Alcotest.(check string) "a hit returns the miss's outcome" first again;
  check_bool "a hit skips the consistency check and the base pushes" true
    (hit_pushes < miss_pushes);
  expect "value 0, still cached" (0, 0) (explain 0);
  (* value 1 is now the least recently used of the 8 *)
  expect "a ninth value is a miss" (1, 1) (explain Pipeline.capacity);
  expect "value 0 survived the eviction" (0, 0) (explain 0);
  expect "value 1 was evicted" (1, 1) (explain 1);
  for i = 3 to Pipeline.capacity do
    expect (Printf.sprintf "value %d still cached" i) (0, 0) (explain i)
  done;
  expect "value 2 was evicted by value 1" (1, 1) (explain 2)

(* Three domains explain one shared pattern-set value at once, each
   through its own cache, and three more share one closed
   [Modification.prepared] value; every domain gets the sequential
   results. *)
let test_prepared_domains () =
  let sample = prepared_sample () in
  let rtfm = List.filter (fun (ps, _) -> ps == Datagen.Rtfm.patterns) sample in
  let pipeline () =
    List.map (fun (ps, t) -> show_outcome (Pipeline.explain ps t)) rtfm
  in
  let shared = Modification.prepare Datagen.Rtfm.patterns in
  Modification.close shared;
  let modification () =
    List.map
      (fun (_, t) ->
        show_result (Modification.explain_prepared shared t))
      (List.filter
         (fun (ps, t) -> not (Pattern.Matcher.matches_set t ps))
         rtfm)
  in
  List.iter
    (fun (what, f) ->
      let expected = f () in
      let domains = List.init 3 (fun _ -> Domain.spawn f) in
      List.iteri
        (fun i d ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s: domain %d" what i)
            expected (Domain.join d))
        domains)
    [ ("pipeline", pipeline); ("shared prepared", modification) ]

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "already an answer" `Quick test_already_answer;
      Alcotest.test_case "inconsistent query route" `Quick test_inconsistent_route;
      Alcotest.test_case "timestamp modification route" `Quick test_timestamp_route;
      Alcotest.test_case "budget fallback to query repair" `Quick
        test_budget_falls_back_to_query_repair;
      Alcotest.test_case "generous budget stays on data" `Quick
        test_budget_generous_keeps_timestamps;
      Alcotest.test_case "no explanation" `Quick test_no_explanation;
      Gen.qt prop_pipeline_total;
      Alcotest.test_case "prepared: cached and uncached agree" `Quick
        test_prepared_agrees;
      Alcotest.test_case "prepared: MRU capacity and misses" `Quick
        test_prepared_cache;
      Alcotest.test_case "prepared: three domains, one value" `Quick
        test_prepared_domains;
    ] )
