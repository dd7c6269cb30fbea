open Whynot
module Ast = Pattern.Ast
module Tuple = Events.Tuple
module Condition = Tcn.Condition
module Consistency = Explain.Consistency
module Modification = Explain.Modification
module Baselines = Explain.Baselines

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p = Pattern.Parse.pattern_exn

(* --- Consistency (Algorithm 1) --- *)

let test_consistency_trivial () =
  let r = Consistency.check [ p "SEQ(E1, E2) ATLEAST 1 WITHIN 5" ] in
  check_bool "consistent" true r.consistent;
  check_bool "witness matches" true (r.witness <> None)

let test_consistency_single_event () =
  let r = Consistency.check [ p "E1" ] in
  check_bool "consistent" true r.consistent;
  match r.witness with
  | Some w -> check_bool "witness binds E1" true (Tuple.mem "E1" w)
  | None -> Alcotest.fail "expected witness"

let test_consistency_paper_inconsistent () =
  (* Section 1.1.1: two ATLEAST-30 ANDs cannot fit in a 45-minute SEQ. *)
  let r =
    Consistency.check
      [ p "SEQ(AND(E1, E3) ATLEAST 30, AND(E2, E4) ATLEAST 30) WITHIN 45" ]
  in
  check_bool "inconsistent" false r.consistent;
  check_int "all 16 bindings refuted" 16 r.bindings_checked

let test_consistency_cross_pattern () =
  (* Consistent individually, contradictory jointly. *)
  let ps = [ p "SEQ(E1, E2) ATLEAST 10"; p "SEQ(E2, E1) ATLEAST 10" ] in
  check_bool "joint inconsistency detected" false (Consistency.check ps).consistent

let test_consistency_fig4_family () =
  List.iter
    (fun n ->
      check_bool "b=1 inconsistent" false
        (Consistency.check (Datagen.Workloads.fig4_pattern_set ~n ~b:1)).consistent;
      check_bool "b=2 consistent" true
        (Consistency.check (Datagen.Workloads.fig4_pattern_set ~n ~b:2)).consistent)
    [ 1; 2; 3 ]

let test_consistency_sampled_no_false_positive () =
  (* Randomized runs on inconsistent sets must never report consistent. *)
  for seed = 0 to 20 do
    let r =
      Consistency.check ~strategy:(Consistency.Sampled 4) ~seed
        (Datagen.Workloads.fig4_pattern_set ~n:2 ~b:1)
    in
    check_bool "never false positive" false r.consistent;
    check_bool "flagged inexact" false r.exact
  done

let prop_consistency_witness_matches =
  QCheck.Test.make ~name:"Alg 1 witness always matches the pattern set" ~count:200
    (Gen.pattern ()) (fun pat ->
      let r = Consistency.check [ pat ] in
      match r.witness with
      | Some w -> r.consistent && Pattern.Matcher.matches w pat
      | None -> not r.consistent)

let prop_sampled_implies_full =
  QCheck.Test.make ~name:"sampled consistent => full consistent" ~count:100
    (Gen.pattern ()) (fun pat ->
      let sampled =
        Consistency.check ~strategy:(Consistency.Sampled 3) ~seed:1 [ pat ]
      in
      (not sampled.consistent) || (Consistency.check [ pat ]).consistent)

(* --- Lp_repair / Flow_repair --- *)

let test_lp_repair_simple () =
  let phis = [ Condition.interval ~lo:10 ~hi:20 "A" "B" ] in
  let t = Tuple.of_list [ ("A", 100); ("B", 105) ] in
  match Explain.Lp_repair.repair t phis with
  | None -> Alcotest.fail "feasible"
  | Some { repaired; cost; integral_relaxation } ->
      check_int "minimal cost" 5 cost;
      check_bool "integral" true integral_relaxation;
      check_bool "satisfies" true (Condition.intervals_hold repaired phis)

let test_lp_repair_zero_when_satisfied () =
  let phis = [ Condition.interval ~lo:0 ~hi:20 "A" "B" ] in
  let t = Tuple.of_list [ ("A", 100); ("B", 105) ] in
  match Explain.Lp_repair.repair t phis with
  | Some { cost; repaired; _ } ->
      check_int "zero cost" 0 cost;
      check_bool "unchanged" true (Tuple.equal repaired t)
  | None -> Alcotest.fail "feasible"

let test_lp_repair_infeasible () =
  let phis =
    [ Condition.interval ~lo:5 "A" "B"; Condition.interval ~lo:0 ~hi:2 "B" "A" ]
  in
  let t = Tuple.of_list [ ("A", 0); ("B", 0) ] in
  check_bool "None on inconsistent" true (Explain.Lp_repair.repair t phis = None)

let test_lp_repair_artificial_free () =
  (* Artificial events move for free: only the real move is billed. *)
  let art = Events.Event.artificial_start 0 in
  let phis =
    [ Condition.exact art "A"; Condition.interval ~lo:10 ~hi:10 art "B" ]
  in
  let t = Tuple.of_list [ ("A", 50); ("B", 80); (art, 50) ] in
  match Explain.Lp_repair.repair t phis with
  | Some { cost; _ } -> check_int "cost counts only A and B" 20 cost
  | None -> Alcotest.fail "feasible"

let test_lp_repair_nonnegative () =
  (* The cheap fix would push A to -5; the domain forces another optimum. *)
  let phis = [ Condition.interval ~lo:10 ~hi:10 "A" "B" ] in
  let t = Tuple.of_list [ ("A", 5); ("B", 0) ] in
  match Explain.Lp_repair.repair t phis with
  | Some { repaired; _ } ->
      check_bool "A stays >= 0" true (Tuple.find repaired "A" >= 0);
      check_bool "B stays >= 0" true (Tuple.find repaired "B" >= 0);
      check_bool "satisfies" true (Condition.intervals_hold repaired phis)
  | None -> Alcotest.fail "feasible"

let repair_instance_gen =
  QCheck.Gen.pair (Gen.intervals_gen ()) (QCheck.Gen.int_bound 10_000)

let arb_repair_instance =
  QCheck.make
    ~print:(fun (phis, seed) ->
      Format.asprintf "seed %d, [%a]" seed
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
           Condition.pp_interval)
        phis)
    repair_instance_gen

let tuple_for phis seed =
  let events = Events.Event.Set.elements (Condition.interval_events phis) in
  let st = Random.State.make [| seed |] in
  Gen.tuple_over events ~horizon:120 st

let prop_lp_repair_sound =
  QCheck.Test.make ~name:"LP repair: feasible, billed exactly, zero iff satisfied"
    ~count:300 arb_repair_instance (fun (phis, seed) ->
      let t = tuple_for phis seed in
      match Explain.Lp_repair.repair t phis with
      | None -> not (Tcn.Stn.consistent (Tcn.Stn.of_intervals phis))
      | Some { repaired; cost; _ } ->
          Condition.intervals_hold repaired phis
          && Tuple.delta t repaired = cost
          && (cost = 0) = Condition.intervals_hold t phis
          && Tuple.fold (fun _ ts acc -> acc && ts >= 0) repaired true)

let prop_lp_equals_flow =
  QCheck.Test.make ~name:"flow repair optimum = LP repair optimum" ~count:300
    arb_repair_instance (fun (phis, seed) ->
      let t = tuple_for phis seed in
      match (Explain.Lp_repair.repair t phis, Explain.Flow_repair.repair t phis) with
      | None, None -> true
      | Some a, Some b ->
          a.cost = b.cost
          && Condition.intervals_hold b.repaired phis
          && Tuple.delta t b.repaired = b.cost
      | _ -> false)

let prop_lp_relaxation_integral =
  QCheck.Test.make ~name:"repair LP relaxation is integral (total unimodularity)"
    ~count:300 arb_repair_instance (fun (phis, seed) ->
      let t = tuple_for phis seed in
      match Explain.Lp_repair.repair t phis with
      | Some { integral_relaxation; _ } -> integral_relaxation
      | None -> true)

(* --- Modification (Algorithm 2) --- *)

let test_modification_paper_example () =
  let p0 = p "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 120" in
  let t2 =
    Tuple.of_list [ ("E1", 1026); ("E2", 1134); ("E3", 1044); ("E4", 1208) ]
  in
  (* Algorithm 2 as published sweeps every binding; the branch-and-bound
     engine (the default) returns the same repair from fewer leaves. *)
  let full engine = Modification.explain ~strategy:Modification.Full ~engine [ p0 ] t2 in
  (match (full Modification.Flat, full Modification.Bnb) with
  | Some flat, Some bnb ->
      check_int "cost 44 (Example 6)" 44 flat.cost;
      check_int "16 bindings" 16 flat.bindings_tried;
      check_bool "exact" true flat.exact;
      check_bool "matches" true (Pattern.Matcher.matches flat.repaired p0);
      check_int "bnb: cost 44" 44 bnb.cost;
      check_bool "bnb: the flat sweep's repaired tuple" true
        (Tuple.equal flat.repaired bnb.repaired);
      check_int "bnb: 3 leaves solved" 3 bnb.bindings_tried
  | _ -> Alcotest.fail "expected repair");
  match Modification.explain ~strategy:Modification.Single [ p0 ] t2 with
  | Some { cost; bindings_tried; exact; _ } ->
      check_int "single also 44 here" 44 cost;
      check_int "one binding" 1 bindings_tried;
      check_bool "inexact flag" false exact
  | None -> Alcotest.fail "expected repair"

let test_modification_zero_cost_on_match () =
  let q = p "SEQ(E1, E2) WITHIN 10" in
  let t = Tuple.of_list [ ("E1", 0); ("E2", 5) ] in
  match Modification.explain [ q ] t with
  | Some { cost; repaired; _ } ->
      check_int "zero" 0 cost;
      check_bool "unchanged" true (Tuple.equal repaired t)
  | None -> Alcotest.fail "expected repair"

let test_modification_inconsistent_none () =
  let q = p "SEQ(AND(E1, E3) ATLEAST 30, AND(E2, E4) ATLEAST 30) WITHIN 45" in
  let t = Tuple.of_list [ ("E1", 0); ("E2", 10); ("E3", 5); ("E4", 20) ] in
  check_bool "None on inconsistent query" true (Modification.explain [ q ] t = None)

let test_modification_missing_event () =
  let q = p "SEQ(E1, E2)" in
  check_bool "raises on unbound pattern event" true
    (try ignore (Modification.explain [ q ] (Tuple.of_list [ ("E1", 0) ])); false
     with Invalid_argument _ -> true)

let test_modification_sampled_dedupes () =
  (* AND(E1, E2, E3) has 9 bindings; drawing 100 samples must solve (and
     report) each distinct binding at most once. *)
  let q = p "AND(E1, E2, E3) WITHIN 40" in
  let t = Tuple.of_list [ ("E1", 0); ("E2", 90); ("E3", 55) ] in
  match Modification.explain ~strategy:(Modification.Sampled 100) [ q ] t with
  | Some { bindings_tried; _ } ->
      check_bool "tried counts distinct bindings only" true (bindings_tried <= 9);
      check_bool "at least the single binding" true (bindings_tried >= 1)
  | None -> Alcotest.fail "expected repair"

let test_modification_untouched_events_kept () =
  let q = p "SEQ(E1, E2) WITHIN 2" in
  let t = Tuple.of_list [ ("E1", 0); ("E2", 50); ("Unrelated", 7) ] in
  match Modification.explain [ q ] t with
  | Some { repaired; _ } -> check_int "unrelated kept" 7 (Tuple.find repaired "Unrelated")
  | None -> Alcotest.fail "expected repair"

let arb_pattern_tuple = Gen.pattern_and_tuple ~horizon:120 ()

let prop_modification_full_sound =
  QCheck.Test.make ~name:"Alg 2 Full: repaired matches at billed cost" ~count:200
    arb_pattern_tuple (fun (pat, t) ->
      match Modification.explain ~strategy:Modification.Full [ pat ] t with
      | Some { repaired; cost; _ } ->
          Pattern.Matcher.matches repaired pat && Tuple.delta t repaired = cost
      | None -> not (Consistency.check [ pat ]).consistent)

(* Proposition 8 exactly as stated: equality for patterns of the form
   AND(E1, ..., En). (QCheck found nested AND-only counterexamples, so the
   proposition does not extend beyond the flat form — see DESIGN.md.) *)
let flat_and = function
  | Ast.And (children, _) ->
      List.for_all (function Ast.Event _ -> true | _ -> false) children
  | Ast.Event _ | Ast.Seq _ -> false

let prop_modification_single_upper_bound =
  QCheck.Test.make
    ~name:"single binding cost >= full cost; equal for flat AND and for simple"
    ~count:200 arb_pattern_tuple (fun (pat, t) ->
      match
        ( Modification.explain ~strategy:Modification.Full [ pat ] t,
          Modification.explain ~strategy:Modification.Single [ pat ] t )
      with
      | Some full, Some single ->
          full.cost <= single.cost
          && ((not (flat_and pat || Ast.classify pat = Ast.Simple))
             || full.cost = single.cost)
      | None, _ -> true (* inconsistent set *)
      | Some _, None -> true (* single binding may miss the feasible binding *))

let prop_modification_flow_equals_lp =
  QCheck.Test.make ~name:"Alg 2 with Flow solver = with LP solver" ~count:150
    arb_pattern_tuple (fun (pat, t) ->
      match
        ( Modification.explain ~solver:Modification.Lp [ pat ] t,
          Modification.explain ~solver:Modification.Flow [ pat ] t )
      with
      | Some a, Some b -> a.cost = b.cost
      | None, None -> true
      | _ -> false)

(* --- Baselines --- *)

let test_brute_force_exactness_small () =
  let q = p "SEQ(E1, E2) ATLEAST 10 WITHIN 12" in
  let t = Tuple.of_list [ ("E1", 20); ("E2", 25) ] in
  (match Baselines.brute_force ~grid:1 ~radius:10 [ q ] t with
  | Some { cost; matched; repaired } ->
      check_int "exact cost 5" 5 cost;
      check_bool "matched" true matched;
      check_bool "really matches" true (Pattern.Matcher.matches repaired q)
  | None -> Alcotest.fail "expected brute-force repair");
  (* With a coarse grid the exact optimum may be missed but a lattice repair
     should still be found. *)
  match Baselines.brute_force ~grid:5 ~radius:20 [ q ] t with
  | Some { cost; _ } -> check_bool "coarse cost >= exact" true (cost >= 5)
  | None -> Alcotest.fail "expected coarse repair"

let test_brute_force_out_of_radius () =
  let q = p "SEQ(E1, E2) ATLEAST 100" in
  let t = Tuple.of_list [ ("E1", 0); ("E2", 0) ] in
  check_bool "radius too small: None" true
    (Baselines.brute_force ~grid:1 ~radius:10 [ q ] t = None)

let test_greedy_simple_fix () =
  let q = p "SEQ(E1, E2) ATLEAST 10 WITHIN 12" in
  let t = Tuple.of_list [ ("E1", 20); ("E2", 25) ] in
  let r = Baselines.greedy [ q ] t in
  check_bool "greedy matched" true r.matched;
  check_bool "greedy cost positive" true (r.cost > 0)

let prop_greedy_reports_match_truthfully =
  QCheck.Test.make ~name:"greedy: matched flag is truthful, cost is delta" ~count:200
    arb_pattern_tuple (fun (pat, t) ->
      let r = Baselines.greedy [ pat ] t in
      r.matched = Pattern.Matcher.matches r.repaired pat
      && r.cost = Tuple.delta t r.repaired)

let prop_brute_force_never_beats_exact =
  QCheck.Test.make ~name:"brute force cost >= exact Full cost" ~count:100
    (Gen.pattern_and_tuple ~horizon:30 ~max_events:4 ()) (fun (pat, t) ->
      match
        ( Baselines.brute_force ~grid:1 ~radius:12 [ pat ] t,
          Modification.explain ~strategy:Modification.Full [ pat ] t )
      with
      | Some bf, Some exact -> bf.cost >= exact.cost
      | _ -> true)

(* --- Name invariance ---

   The answer depends on the data, not on the event names: renaming the
   events by an injective map renames the explanation, cost and timestamp
   per event, for the exact search and for Pattern(Single). *)

let rec rename f = function
  | Ast.Event e -> Ast.Event (f e)
  | Ast.Seq (ps, w) -> Ast.Seq (List.map (rename f) ps, w)
  | Ast.And (ps, w) -> Ast.And (List.map (rename f) ps, w)

let rename_tuple f t = Tuple.fold (fun e ts acc -> Tuple.add (f e) ts acc) t Tuple.empty

let renamed_explanation strategy pat t f =
  match
    ( Modification.explain ~strategy [ pat ] t,
      Modification.explain ~strategy [ rename f pat ] (rename_tuple f t) )
  with
  | None, None -> true
  | Some r, Some r' ->
      r.cost = r'.cost && Tuple.equal (rename_tuple f r.repaired) r'.repaired
  | Some _, None | None, Some _ -> false

(* A pattern, a tuple and an injective renaming of their events: shuffled
   letters, each with a random digit, so the new names sort in a random
   order against the old ones. *)
let arb_renamed horizon =
  let gen st =
    let pat, t = Gen.pattern_and_tuple_gen ~horizon () st in
    let letters = Array.init 26 (fun i -> String.make 1 (Char.chr (Char.code 'A' + i))) in
    for i = 25 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = letters.(i) in
      letters.(i) <- letters.(j);
      letters.(j) <- x
    done;
    let map =
      List.mapi
        (fun i e -> (e, letters.(i) ^ string_of_int (Random.State.int st 10)))
        (Events.Event.Set.elements (Ast.events pat))
    in
    (pat, t, map)
  in
  QCheck.make
    ~print:(fun (pat, t, map) ->
      Format.asprintf "%a over %a renamed %s" Ast.pp pat Tuple.pp t
        (String.concat ", " (List.map (fun (a, b) -> a ^ " -> " ^ b) map)))
    gen

let prop_name_invariance horizon =
  QCheck.Test.make
    ~name:(Printf.sprintf "renamed events, renamed explanation (horizon %d)" horizon)
    ~count:200 (arb_renamed horizon)
    (fun (pat, t, map) ->
      let f e = List.assoc e map in
      renamed_explanation Modification.Full pat t f
      && renamed_explanation Modification.Single pat t f)

(* SEQ(A, B) WITHIN 5 over A = 100, B = 110: every optimum moves A up or
   B down by 5 in all, and the earliest keeps A and moves B, whatever the
   first event is called. *)
let test_name_invariance_fixed () =
  List.iter
    (fun (first, strategy) ->
      let pat = p (Printf.sprintf "SEQ(%s, B) WITHIN 5" first) in
      let t = Tuple.of_list [ (first, 100); ("B", 110) ] in
      match Modification.explain ~strategy [ pat ] t with
      | Some r ->
          check_int (first ^ ": cost") 5 r.cost;
          Alcotest.(check (list (triple string int int)))
            (first ^ ": B 110 -> 105")
            [ ("B", 110, 105) ] (Tuple.diff t r.repaired)
      | None -> Alcotest.fail "expected a repair")
    [ ("A", Modification.Full); ("Z", Modification.Full); ("A", Modification.Single);
      ("Z", Modification.Single) ]

let qt = Gen.qt

(* --- Pinned outcomes and pinned work ---

   Each fixed workload has two pins. Its outcome digest (costs and
   repaired tuples) says what the explanations answer, and must not move
   when only the search or the solver gets cheaper. Its work pin says how
   much work they take: the leaves the branch-and-bound search prices,
   and the simplex counter deltas of its solves. Bland's rule over exact
   rationals makes every pivot deterministic, so the deltas pin the pivot
   sequence: a different pivot rule, any changed arithmetic result, or a
   different winning leaf moves them. The work pins were recorded on the
   search whose bound reads the closure's pairwise distances, whose leaves
   are priced exactly from their closure, and which reads its winner's
   earliest optimal repair off the winner's closure: on these unit-weight
   workloads it solves no LP at all. *)

let counter_deltas names f =
  let read () = List.map (fun n -> Option.value ~default:0 (Obs.find_counter n)) names in
  let before = read () in
  let x = f () in
  (x, List.map2 ( - ) (read ()) before)

let check_deltas names expected got =
  List.iter2 (fun (name, e) g -> check_int name e g) (List.combine names expected) got

(* The outcome of a request as text: what it answers (cost and repaired
   tuple), not how much work it took. *)
let outcome_line o = Format.asprintf "%a" Explain.Pipeline.pp_outcome o
let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let table1_p0 = p "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 2 hours"
let table1_t2 = Tuple.of_list [ ("E1", 1026); ("E2", 1134); ("E3", 1044); ("E4", 1208) ]

(* What the Table-1 explain answers: the earliest optimal repair, which
   moves only E4, as the paper's Example 5 does. *)
let test_outcome_digest_table1 () =
  let o = Explain.Pipeline.explain [ table1_p0 ] table1_t2 in
  Alcotest.(check string) "outcome digest" "64fee88d93f8d8ae649bbb2c2ab6dd63"
    (digest_lines [ outcome_line o ])

(* How much work the Table-1 explain takes: the leaves priced, and no
   pivot. *)
let test_simplex_pin_table1 () =
  let names =
    [ "simplex.pivots"; "simplex.phase1_iters"; "simplex.phase2_iters";
      "simplex.degenerate_pivots"; "simplex.solves"; "simplex.infeasible" ]
  in
  let outcome, got =
    counter_deltas names (fun () -> Explain.Pipeline.explain [ table1_p0 ] table1_t2)
  in
  (match outcome with
  | Explain.Pipeline.Modify_timestamps m ->
      check_int "cost 44" 44 m.cost;
      check_int "leaves solved" 3 m.bindings_tried
  | _ -> Alcotest.fail "expected a timestamp modification");
  check_deltas names [ 0; 0; 0; 0; 0; 0 ] got

(* A seeded sample of the bench's explain mix: faulted RTFM cases and
   Flight days of 4 and 6 events, through [Pipeline.explain] at its
   defaults. *)
let sample_requests () =
  let prng = Numeric.Prng.create 13 in
  let rtfm =
    Datagen.Rtfm.generate prng ~tuples:100
    |> Datagen.Faults.trace prng ~rate:0.5 ~distance:2000
  in
  let f4 = Datagen.Flight.generate prng ~num_events:4 ~days:16 in
  let f6 = Datagen.Flight.generate prng ~num_events:6 ~days:3 in
  List.concat_map
    (fun (ps, tr) -> List.map (fun (_, t) -> (ps, t)) (Events.Trace.bindings tr))
    [ (Datagen.Rtfm.patterns, rtfm); ([ f4.pattern ], f4.observed);
      ([ f6.pattern ], f6.observed) ]

(* What the sample's requests answer: every outcome's cost and repaired
   tuple (the earliest optimal repair), recorded like the Table-1
   digest. *)
let test_outcome_digest_sample () =
  let lines =
    List.map
      (fun (ps, t) -> outcome_line (Explain.Pipeline.explain ps t))
      (sample_requests ())
  in
  Alcotest.(check string) "outcome digest" "e289420ecbb1f771df415d60d7ff50ff"
    (digest_lines lines)

(* What the sample's requests cost, without the repaired tuples: which
   optimum is printed may change, the optimal cost may not. *)
let test_cost_digest_sample () =
  let line = function
    | Explain.Pipeline.Modify_timestamps m -> Printf.sprintf "cost %d" m.cost
    | o -> outcome_line o
  in
  let lines =
    List.map (fun (ps, t) -> line (Explain.Pipeline.explain ps t)) (sample_requests ())
  in
  Alcotest.(check string) "cost digest" "00df7dd47ff8480f063d64ed090bd81a" (digest_lines lines)

(* What the sample allocates: the minor words of one pass of
   [Pipeline.explain] over it, after a warm-up pass has prepared its three
   queries. The cache is filled to capacity first, so its most-recently-used
   list has the same length whatever ran before. *)
let test_alloc_pin_sample () =
  let requests = sample_requests () in
  for i = 1 to Explain.Pipeline.capacity do
    let q = [ p (Printf.sprintf "SEQ(E1, E2) WITHIN %d" i) ] in
    ignore (Explain.Pipeline.explain q (Tuple.of_list [ ("E1", 0); ("E2", 0) ]))
  done;
  let pass () = List.iter (fun (ps, t) -> ignore (Explain.Pipeline.explain ps t)) requests in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  let words = int_of_float (Gc.minor_words () -. before) in
  check_int "minor words over the sample" 194062 words

(* How much work the sample takes: the leaves each request priced, and no
   solve. *)
let test_simplex_pin_sample () =
  let requests = sample_requests () in
  let names = [ "simplex.pivots"; "simplex.solves" ] in
  let tried, got =
    counter_deltas names (fun () ->
        List.map
          (fun (ps, t) ->
            match Explain.Pipeline.explain ps t with
            | Explain.Pipeline.Modify_timestamps m -> Some m.bindings_tried
            | _ -> None)
          requests)
  in
  check_deltas names [ 0; 0 ] got;
  check_int "leaves solved" 127
    (List.fold_left (fun acc k -> acc + Option.value ~default:0 k) 0 tried);
  Alcotest.(check string) "leaves solved per request"
    "408c7c26ce15a382a6e97d5fdc6b4fca"
    (digest_lines
       (List.map (function Some k -> string_of_int k | None -> "-") tried))

(* Weighted, bounded and cutoff repairs on a seeded RTFM and Flight
   sample: the first bindings of each request's network, each repaired
   plainly, with per-event weights, with plausibility bounds, and under
   incumbent cutoffs above, at and below its optimum. The cutoff rows are
   where the repair tableaux take fractions. The expected values were
   recorded on the tableau of boxed rationals. *)
let test_simplex_pin_repairs () =
  let prng = Numeric.Prng.create 29 in
  let rtfm =
    Datagen.Rtfm.generate prng ~tuples:40
    |> Datagen.Faults.trace prng ~rate:0.5 ~distance:2000
  in
  let f4 = Datagen.Flight.generate prng ~num_events:4 ~days:8 in
  let f6 = Datagen.Flight.generate prng ~num_events:6 ~days:2 in
  let requests =
    List.concat_map
      (fun (ps, tr) -> List.map (fun (_, t) -> (ps, t)) (Events.Trace.bindings tr))
      [ (Datagen.Rtfm.patterns, rtfm); ([ f4.pattern ], f4.observed);
        ([ f6.pattern ], f6.observed) ]
  in
  let weights e = 1 + (Char.code e.[String.length e - 1] mod 3) in
  let bounds e = Some (40 + (20 * (Char.code e.[0] mod 4))) in
  let show = function
    | None -> "none"
    | Some { Explain.Lp_repair.repaired; cost; integral_relaxation } ->
        Format.asprintf "%d %b %a" cost integral_relaxation Tuple.pp repaired
  in
  let names = [ "simplex.pivots"; "simplex.solves" ] in
  let digest, got =
    counter_deltas names (fun () ->
        let buf = Buffer.create 65536 in
        let line r = Buffer.add_string buf (show r ^ "\n") in
        List.iter
          (fun (ps, t) ->
            let net = Tcn.Encode.pattern_set ps in
            let t = Tcn.Encode.extend net t in
            Seq.iter
              (fun phi ->
                let phis = phi @ net.set_intervals in
                let repair = Explain.Lp_repair.repair in
                let plain = repair t phis in
                line plain;
                line (repair ~weights t phis);
                line (repair ~bounds t phis);
                match plain with
                | Some { cost; _ } ->
                    List.iter
                      (fun cutoff ->
                        line (repair ~cutoff t phis);
                        line (repair ~weights ~cutoff t phis))
                      [ cost + 1; cost; (cost / 2) + 1 ]
                | None -> ())
              (Seq.take 3 (Tcn.Bindings.full net.set_bindings)))
          requests;
        Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  check_deltas names [ 8950; 1068 ] got;
  Alcotest.(check string) "repair digest" "eaacd75d96dcb6e60ab085999c89dfb1" digest

let suite =
  ( "explain",
    [
      Alcotest.test_case "consistency trivial" `Quick test_consistency_trivial;
      Alcotest.test_case "consistency single event" `Quick test_consistency_single_event;
      Alcotest.test_case "consistency paper inconsistent" `Quick
        test_consistency_paper_inconsistent;
      Alcotest.test_case "consistency cross-pattern" `Quick test_consistency_cross_pattern;
      Alcotest.test_case "consistency fig4 family" `Quick test_consistency_fig4_family;
      Alcotest.test_case "sampled: no false positives" `Quick
        test_consistency_sampled_no_false_positive;
      qt prop_consistency_witness_matches;
      qt prop_sampled_implies_full;
      Alcotest.test_case "lp repair minimal" `Quick test_lp_repair_simple;
      Alcotest.test_case "lp repair zero on satisfied" `Quick test_lp_repair_zero_when_satisfied;
      Alcotest.test_case "lp repair infeasible" `Quick test_lp_repair_infeasible;
      Alcotest.test_case "lp repair artificial free" `Quick test_lp_repair_artificial_free;
      Alcotest.test_case "lp repair non-negative domain" `Quick test_lp_repair_nonnegative;
      qt prop_lp_repair_sound;
      qt prop_lp_equals_flow;
      qt prop_lp_relaxation_integral;
      Alcotest.test_case "modification paper example (44)" `Quick
        test_modification_paper_example;
      Alcotest.test_case "modification zero cost on match" `Quick
        test_modification_zero_cost_on_match;
      Alcotest.test_case "modification inconsistent -> None" `Quick
        test_modification_inconsistent_none;
      Alcotest.test_case "modification missing event raises" `Quick
        test_modification_missing_event;
      Alcotest.test_case "modification keeps untouched events" `Quick
        test_modification_untouched_events_kept;
      Alcotest.test_case "modification sampled dedupes" `Quick
        test_modification_sampled_dedupes;
      qt prop_modification_full_sound;
      qt prop_modification_single_upper_bound;
      qt prop_modification_flow_equals_lp;
      Alcotest.test_case "brute force exact on fine grid" `Quick
        test_brute_force_exactness_small;
      Alcotest.test_case "brute force out of radius" `Quick test_brute_force_out_of_radius;
      Alcotest.test_case "greedy fixes a simple violation" `Quick test_greedy_simple_fix;
      qt prop_greedy_reports_match_truthfully;
      qt prop_brute_force_never_beats_exact;
      Alcotest.test_case "outcome digest: Table 1" `Quick test_outcome_digest_table1;
      Alcotest.test_case "simplex pivot pin: Table 1" `Quick test_simplex_pin_table1;
      Alcotest.test_case "outcome digest: RTFM + Flight sample" `Quick
        test_outcome_digest_sample;
      Alcotest.test_case "simplex pivot pin: RTFM + Flight sample" `Quick
        test_simplex_pin_sample;
      Alcotest.test_case "simplex pin: weighted, bounded and cutoff repairs" `Quick
        test_simplex_pin_repairs;
      qt (prop_name_invariance 120);
      qt (prop_name_invariance 2000);
      Alcotest.test_case "name invariance: SEQ(A, B) and SEQ(Z, B)" `Quick
        test_name_invariance_fixed;
      Alcotest.test_case "cost digest: RTFM + Flight sample" `Quick test_cost_digest_sample;
      Alcotest.test_case "allocation pin: RTFM + Flight sample" `Quick test_alloc_pin_sample;
    ] )
