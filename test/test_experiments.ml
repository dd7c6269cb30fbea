(* Integration tests: shrunk versions of every figure harness, checking the
   qualitative shapes the paper reports rather than absolute numbers. *)

open Whynot
module E = Experiments

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let find_algo row_algos name =
  match List.assoc_opt name row_algos with
  | Some r -> r
  | None -> Alcotest.failf "algorithm %s missing" name

let test_table1 () =
  let r = E.Table1.run () in
  check_bool "t1 matches" true r.t1_matches;
  check_bool "t2 fails" false r.t2_matches;
  check_bool "inconsistent variant" true r.inconsistent_variant_rejected;
  check_int "full cost 44" 44 r.full_cost;
  check_int "16 bindings" 16 r.full_bindings;
  check_int "bnb: 3 leaves" 3 r.bnb_leaves;
  check_bool "bnb: the sweep's cost and repaired tuple" true r.bnb_same_repair;
  check_int "single cost 44" 44 r.single_cost;
  check_int "example 3 cost 44" 44 r.example3_cost;
  (* Example 5: the printed repair is the paper's t2' (only E4 moved, to
     19:24), the earliest of Example 3's optima. *)
  let hm = Events.Time.of_hm in
  let paper_t2' = Events.Tuple.add "E4" (hm "19:24") E.Table1.t2 in
  List.iter
    (fun (what, t) ->
      check_bool (what ^ " matches example 3") true
        (Pattern.Matcher.matches t E.Table1.example3);
      check_int (what ^ " at cost 44") 44 (Events.Tuple.delta E.Table1.t2 t))
    [ ("printed repair", r.example3_repaired); ("paper's t2'", paper_t2') ];
  Alcotest.(check (list (triple string int int)))
    "the printed repair moves E4 20:08 -> 19:24"
    [ ("E4", hm "20:08", hm "19:24") ]
    (Events.Tuple.diff E.Table1.t2 r.example3_repaired);
  check_bool "the printed repair is the paper's t2'" true
    (Events.Tuple.equal paper_t2' r.example3_repaired);
  Alcotest.(check (option int)) "the row's cost for the paper's t2'" (Some 44)
    r.paper_t2'_cost

let test_table2 () =
  List.iter
    (fun row -> check_bool row.E.Table2.pattern_class true row.verified)
    (E.Table2.run ~instances:3 ~seed:77 ())

let test_fig5 () =
  let result =
    E.Fig5.run { E.Fig5.default with ns = [ 1; 2; 3 ]; repeats = 3; sample_counts = [ 1; 10 ] }
  in
  let strat name =
    List.find (fun s -> s.E.Fig5.strategy = name) result.strategies
  in
  check_bool "full is exact" true ((strat "Full").accuracy = 1.0);
  check_bool "10-binding beats 1-binding" true
    ((strat "10-binding").accuracy >= (strat "1-binding").accuracy);
  check_bool "1-binding never exceeds full" true ((strat "1-binding").accuracy <= 1.0);
  check_int "one row per n" 3 (List.length result.rows)

let test_fig6 () =
  let rows =
    E.Fig6.run { E.Fig6.default with event_counts = [ 4; 6 ]; days = 8 }
  in
  check_int "two rows" 2 (List.length rows);
  List.iter
    (fun row ->
      let get name =
        match find_algo row.E.Fig6.per_algorithm name with
        | Some r -> r
        | None -> Alcotest.failf "%s skipped unexpectedly" name
      in
      let full = get "Pattern(Full)" and single = get "Pattern(Single)" in
      check_bool "single no slower than full" true
        (single.Experiments.Repair_run.time <= full.Experiments.Repair_run.time +. 1e-6);
      check_bool "exact methods repair everything" true
        (full.unrepaired = 0 && single.unrepaired = 0);
      (* Brute force is only attempted at <= 5 events. *)
      match List.assoc "Brute-force" row.per_algorithm with
      | Some _ -> check_bool "bf allowed size" true (row.events <= 5)
      | None -> check_bool "bf skipped above limit" true (row.events > 5))
    rows

let test_rtfm_point () =
  let row =
    E.Rtfm_sweep.run_point ~seed:123
      { E.Rtfm_sweep.rate = 0.1; distance = 150; tuples = 120 }
  in
  check_bool "some non-answers injected" true (row.non_answers > 0);
  let full = find_algo row.per_algorithm "Pattern(Full)" in
  let single = find_algo row.per_algorithm "Pattern(Single)" in
  let greedy = find_algo row.per_algorithm "Greedy" in
  check_bool "full repairs all" true (full.unrepaired = 0);
  check_bool "exact rmse at most greedy rmse (weakly)" true
    (full.rmse <= greedy.rmse +. 1e-9);
  check_bool "single rmse close to full" true (single.rmse <= 2.0 *. full.rmse +. 1.0);
  check_bool "repaired trace has no non-answers for full" true
    (Cep.Query.non_answers Datagen.Rtfm.patterns full.repaired_trace = [])

let test_rtfm_rate_monotone () =
  (* More faults -> more non-answers. *)
  let row_at rate =
    E.Rtfm_sweep.run_point ~seed:9 { E.Rtfm_sweep.rate; distance = 150; tuples = 150 }
  in
  let low = row_at 0.05 and high = row_at 0.3 in
  check_bool "non-answers grow with rate" true (high.non_answers >= low.non_answers)

let test_fig10_shape () =
  let rows =
    E.Synthetic.fig10 { E.Synthetic.default_fig10 with ns = [ 4; 6 ]; tuples = 60 }
  in
  List.iter
    (fun row ->
      let full = find_algo row.E.Synthetic.per_algorithm "Pattern(Full)" in
      let single = find_algo row.per_algorithm "Pattern(Single)" in
      (* Constant-size bindings: full explores exactly 4, so its time is a
         small multiple of single's. *)
      check_bool "full slower but bounded" true
        (full.Experiments.Repair_run.time >= single.Experiments.Repair_run.time *. 0.9);
      check_bool "full exact" true (full.unrepaired = 0))
    rows

let test_fig11_prop8 () =
  (* Without SEQ inside AND the single-binding repair cost must equal the
     full optimum on every tuple (Proposition 8); RMSE may differ only
     through tie-breaking, so compare costs directly. *)
  let prng = Numeric.Prng.create 31 in
  let patterns = [ Datagen.Workloads.fig11_pattern ~n:5 ] in
  for _ = 1 to 15 do
    let t = Datagen.Workloads.random_matching_tuple ~horizon:3000 prng patterns in
    let t = Datagen.Faults.tuple prng ~rate:0.5 ~distance:400 t in
    let cost strategy =
      (Option.get (Explain.Modification.explain ~strategy patterns t)).cost
    in
    check_int "Proposition 8 equality"
      (cost Explain.Modification.Full)
      (cost Explain.Modification.Single)
  done

let test_fig12_shape () =
  let config = { E.Fig12.default with answers = 40; non_answers = 15 } in
  let rows = E.Fig12.fig12a ~config ~rates:[ 0.05; 0.2 ] () in
  (* Pattern(Single) beats Greedy over the sweep (pointwise ties can flip at
     the lowest fault rates, as in the paper's near-1.0 region). *)
  let mean f = Datagen.Metrics.mean (List.map f rows) in
  check_bool "single more accurate than greedy on average" true
    (mean (fun r -> r.E.Fig12.single.f_measure)
    >= mean (fun r -> r.E.Fig12.greedy.f_measure) -. 1e-9);
  List.iter
    (fun row ->
      check_bool "f-measures in range" true
        (row.E.Fig12.single.f_measure >= 0.0 && row.single.f_measure <= 1.0))
    rows

let test_ablation_solver () =
  let rows = E.Ablation.solver_ablation ~tuples:10 ~ns:[ 4 ] () in
  List.iter
    (fun r ->
      check_bool "optima equal" true r.E.Ablation.costs_equal;
      check_bool "relaxation integral" true r.integral)
    rows

let test_ablation_sampling () =
  let rows = E.Ablation.sampling_ablation ~repeats:8 ~n:2 ~sample_counts:[ 1; 32 ] () in
  match rows with
  | [ one; many ] ->
      check_bool "more samples no less accurate" true (many.E.Ablation.accuracy >= one.E.Ablation.accuracy)
  | _ -> Alcotest.fail "two rows expected"

let suite =
  ( "experiments",
    [
      Alcotest.test_case "table 1 worked example" `Quick test_table1;
      Alcotest.test_case "table 2 claims" `Slow test_table2;
      Alcotest.test_case "fig 5 shrunk" `Quick test_fig5;
      Alcotest.test_case "fig 6 shrunk" `Slow test_fig6;
      Alcotest.test_case "rtfm point (figs 7-9)" `Slow test_rtfm_point;
      Alcotest.test_case "rtfm monotone in rate" `Slow test_rtfm_rate_monotone;
      Alcotest.test_case "fig 10 shape" `Slow test_fig10_shape;
      Alcotest.test_case "fig 11 Proposition 8" `Slow test_fig11_prop8;
      Alcotest.test_case "fig 12 shape" `Slow test_fig12_shape;
      Alcotest.test_case "ablation solver equality" `Quick test_ablation_solver;
      Alcotest.test_case "ablation sampling monotone" `Quick test_ablation_sampling;
    ] )
