open Whynot
module Modification = Explain.Modification
module Tuple = Events.Tuple
module Ast = Pattern.Ast

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p = Pattern.Parse.pattern_exn

(* The branch-and-bound engine must return exactly what the flat sweep
   returns: same cost AND bit-identical repaired tuple (same winning
   binding, same solver vertex). Only [bindings_tried] may differ. *)
let equal_result a b =
  match (a, b) with
  | None, None -> true
  | Some ra, Some rb ->
      ra.Modification.cost = rb.Modification.cost
      && Tuple.equal ra.Modification.repaired rb.Modification.repaired
      && ra.Modification.exact = rb.Modification.exact
  | _ -> false

let explain engine ?solver ?weights ?bounds pat t =
  Modification.explain ~strategy:Modification.Full ~engine ?solver ?weights
    ?bounds [ pat ] t

let some_weights e = 1 + (Hashtbl.hash e mod 3)
let some_bounds e = if Hashtbl.hash e mod 2 = 0 then Some 25 else None

let prop_bnb_equals_flat =
  QCheck.Test.make ~name:"BnB Full = flat Full (cost and repaired tuple)"
    ~count:150
    (Gen.pattern_and_tuple ~horizon:120 ())
    (fun (pat, t) ->
      equal_result
        (explain Modification.Flat pat t)
        (explain Modification.Bnb pat t))

let prop_bnb_equals_flat_weighted =
  QCheck.Test.make ~name:"BnB = flat under per-event weights" ~count:100
    (Gen.pattern_and_tuple ~horizon:120 ())
    (fun (pat, t) ->
      equal_result
        (explain Modification.Flat ~weights:some_weights pat t)
        (explain Modification.Bnb ~weights:some_weights pat t))

let prop_bnb_equals_flat_bounded =
  QCheck.Test.make ~name:"BnB = flat under plausibility bounds" ~count:100
    (Gen.pattern_and_tuple ~horizon:120 ())
    (fun (pat, t) ->
      equal_result
        (explain Modification.Flat ~bounds:some_bounds pat t)
        (explain Modification.Bnb ~bounds:some_bounds pat t))

let prop_bnb_equals_flat_flow =
  QCheck.Test.make ~name:"BnB = flat with the flow solver" ~count:100
    (Gen.pattern_and_tuple ~horizon:120 ())
    (fun (pat, t) ->
      equal_result
        (explain Modification.Flat ~solver:Modification.Flow pat t)
        (explain Modification.Bnb ~solver:Modification.Flow
           pat t))

(* Wider and nested ANDs, where the binding space is large enough for the
   bound to cut: fig11's AND(E1..En) for n = 4..6 (n^2 bindings), an AND
   inside a SEQ, and two ANDs in one SEQ. Tuples are faulted answers, at a
   fault distance on the scale of the pattern's windows. *)
let nested_shapes =
  let e = Ast.event in
  [|
    (fun st -> (Datagen.Workloads.fig11_pattern ~n:(4 + Random.State.int st 3), 400));
    (fun _ ->
      ( Ast.seq ~within:200
          [ e "E0"; Ast.and_ ~atleast:10 ~within:60 [ e "E1"; e "E2"; e "E3" ]; e "E4" ],
        50 ));
    (fun _ ->
      ( Ast.seq ~atleast:60
          [ Ast.and_ ~within:30 [ e "E1"; e "E2"; e "E3" ];
            Ast.and_ ~within:30 [ e "E4"; e "E5"; e "E6" ] ],
        80 ));
    (fun _ ->
      ( Ast.and_ ~atleast:20 ~within:120
          [ Ast.seq ~within:30 [ e "E1"; e "E2" ];
            Ast.and_ ~within:40 [ e "E3"; e "E4"; e "E5" ] ],
        60 ));
  |]

(* A pattern, a faulted answer, and whether to price events by
   [some_weights] and to cap their moves at a plausibility bound. *)
let arb_nested =
  let gen st =
    let pat, distance =
      nested_shapes.(Random.State.int st (Array.length nested_shapes)) st
    in
    let prng = Numeric.Prng.create (Random.State.bits st) in
    let t =
      Datagen.Faults.tuple prng ~rate:0.5 ~distance
        (Datagen.Workloads.random_matching_tuple ~horizon:(10 * distance) prng
           [ pat ])
    in
    (pat, t, distance, Random.State.bool st, Random.State.bool st)
  in
  QCheck.make
    ~print:(fun (pat, t, distance, weighted, bounded) ->
      Format.asprintf "%a over %a (distance %d, weighted %b, bounded %b)"
        Ast.pp pat Tuple.pp t distance weighted bounded)
    gen

let counter name = Option.value ~default:0 (Whynot.Obs.find_counter name)

(* Bnb = Flat on every instance, and the bound does cut on some: the
   pairwise bound must stay admissible where it is armed, not only where
   it never fires. *)
let test_bound_nested_ands () =
  let pruned = ref 0 in
  let prop =
    QCheck.Test.make ~name:"BnB = flat on wider and nested ANDs" ~count:120
      arb_nested (fun (pat, t, distance, weighted, bounded) ->
        let weights = if weighted then Some some_weights else None in
        let bounds =
          if bounded then
            Some (fun e -> if Hashtbl.hash e mod 2 = 0 then Some (2 * distance) else None)
          else None
        in
        let flat = explain Modification.Flat ?weights ?bounds pat t in
        let before = counter "bnb.pruned_bound" in
        let bnb = explain Modification.Bnb ?weights ?bounds pat t in
        pruned := !pruned + counter "bnb.pruned_bound" - before;
        equal_result flat bnb)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 20210620 |]) prop;
  check_bool "the bound pruned on some instance" true (!pruned > 0)

let test_paper_example () =
  let p0 = p "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 120" in
  let t2 =
    Tuple.of_list [ ("E1", 1026); ("E2", 1134); ("E3", 1044); ("E4", 1208) ]
  in
  let flat = explain Modification.Flat p0 t2 in
  let bnb = explain Modification.Bnb p0 t2 in
  check_bool "identical to the flat sweep" true (equal_result flat bnb);
  match (flat, bnb) with
  | Some f, Some b ->
      check_int "cost 44 (Example 6)" 44 b.Modification.cost;
      check_bool "exact" true b.Modification.exact;
      check_int "flat tries every binding" 16 f.Modification.bindings_tried;
      check_bool "bnb solves at most as many leaves" true
        (b.Modification.bindings_tried <= 16)
  | _ -> Alcotest.fail "expected a repair from both engines"

let test_bnb_prunes () =
  (* AND(E1..E6): 36 bindings; a heavily faulted tuple gives the search an
     incumbent early and the bound prunes whole subtrees. *)
  let pat = Datagen.Workloads.fig11_pattern ~n:6 in
  let prng = Numeric.Prng.create 11 in
  let t =
    Datagen.Faults.tuple prng ~rate:0.5 ~distance:400
      (Datagen.Workloads.random_matching_tuple ~horizon:5000 prng [ pat ])
  in
  match
    (explain Modification.Flat pat t, explain Modification.Bnb pat t)
  with
  | Some f, Some b ->
      check_bool "same optimum" true (equal_result (Some f) (Some b));
      check_int "flat enumerates all 36" 36 f.Modification.bindings_tried;
      check_bool "bnb solves strictly fewer leaves" true
        (b.Modification.bindings_tried < 36)
  | _ -> Alcotest.fail "expected a repair from both engines"

let test_zero_cost_short_circuit () =
  let pat = p "SEQ(E1, E2) WITHIN 10" in
  let t = Tuple.of_list [ ("E1", 0); ("E2", 5) ] in
  match explain Modification.Bnb pat t with
  | Some { cost; repaired; _ } ->
      check_int "already an answer: cost 0" 0 cost;
      check_bool "tuple unchanged" true (Tuple.equal t repaired)
  | None -> Alcotest.fail "expected a zero-cost repair"

(* The zero-cost stop, pinned as work. [Pipeline.explain] returns
   [Already_answer] for an answer before any search, so this drives
   [Modification.explain] directly: answers of fig11 (n = 4, 6) and
   fig10 (n = 6), every other one lightly faulted. Once a leaf of some top-level subtree repairs at
   cost 0, that subtree's remaining siblings are still pushed and pruned
   by the bound, and every later top-level subtree is skipped unpushed:
   skipping the siblings too, or not skipping the later subtrees, moves
   the pushes and the bound prunes. The pivots are those of one LP solve
   per search, for its winner. *)
let test_zero_stop_pin () =
  let prng = Numeric.Prng.create 5 in
  let requests =
    List.concat_map
      (fun pat ->
        List.init 20 (fun i ->
            let t =
              Datagen.Workloads.random_matching_tuple ~horizon:5000 prng [ pat ]
            in
            let t =
              if i mod 2 = 1 then
                Datagen.Faults.tuple prng ~rate:0.25 ~distance:20 t
              else t
            in
            (pat, t)))
      [ Datagen.Workloads.fig11_pattern ~n:4; Datagen.Workloads.fig11_pattern ~n:6;
        Datagen.Workloads.fig10_pattern ~n:6 ]
  in
  let names =
    [ "bnb.searches"; "bnb.zero_stops"; "bnb.nodes_expanded"; "bnb.leaves_solved";
      "bnb.pruned_bound"; "bnb.pruned_inconsistent"; "stn_inc.pushes";
      "simplex.pivots" ]
  in
  let before = List.map counter names in
  let outcomes =
    List.map
      (fun (pat, t) ->
        match Modification.explain ~strategy:Modification.Full [ pat ] t with
        | None -> "none"
        | Some { Modification.cost; repaired; _ } ->
            Format.asprintf "%d %a" cost Tuple.pp repaired)
      requests
  in
  let got = List.map2 (fun n b -> (n, counter n - b)) names before in
  Alcotest.(check (list (pair string int)))
    "work deltas"
    (List.combine names [ 60; 51; 230; 135; 241; 67; 1158; 806 ])
    got;
  Alcotest.(check string) "outcome digest" "83a4bd766558fa95f8ff61d7d3aef9d0"
    (Digest.to_hex (Digest.string (String.concat "\n" outcomes)))

(* The exact leaf price. On every binding, the price the search charges
   its leaf ([Bnb.leaf_price]) is the repair LP's optimum and the min-cost
   flow's, and it is [None] exactly where both are (an inconsistent
   binding): no network below has more than 12 real events, so every
   consistent leaf is priced. A greedy matching, or an origin that takes
   one partner only, falls below the optimum on some of these bindings. *)
let price_agrees ?(limit = 64) net t =
  let t = Tcn.Encode.extend net t in
  let cost = Option.map (fun r -> r.Explain.Lp_repair.cost) in
  Seq.for_all
    (fun binding ->
      let phis = binding @ net.Tcn.Encode.set_intervals in
      match
        ( Explain.Bnb.leaf_price net t binding,
          cost (Explain.Lp_repair.repair t phis),
          cost (Explain.Flow_repair.repair t phis) )
      with
      | Some price, Some lp, Some flow -> price = lp && price = flow
      | None, None, None -> true
      | _ -> false)
    (Seq.take limit (Tcn.Bindings.full net.set_bindings))

let prop_price_exact horizon =
  QCheck.Test.make
    ~name:(Printf.sprintf "leaf price = LP = flow optimum (horizon %d)" horizon)
    ~count:300
    (Gen.pattern_and_tuple ~horizon ())
    (fun (pat, t) -> price_agrees (Tcn.Encode.pattern_set [ pat ]) t)

(* Faulted fig10 and fig11 answers up to n = 10, and the RTFM and Flight
   sample, binding by binding. *)
let test_price_exact_workloads () =
  let prng = Numeric.Prng.create 17 in
  let faulted pat =
    Datagen.Faults.tuple prng ~rate:0.5 ~distance:400
      (Datagen.Workloads.random_matching_tuple ~horizon:5000 prng [ pat ])
  in
  let cases =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun pat -> List.init 3 (fun _ -> ([ pat ], faulted pat)))
          [ Datagen.Workloads.fig10_pattern ~n; Datagen.Workloads.fig11_pattern ~n ])
      [ 4; 6; 8; 10 ]
  in
  let rtfm =
    Datagen.Rtfm.generate prng ~tuples:60
    |> Datagen.Faults.trace prng ~rate:0.5 ~distance:2000
  in
  let f4 = Datagen.Flight.generate prng ~num_events:4 ~days:8 in
  let f6 = Datagen.Flight.generate prng ~num_events:6 ~days:2 in
  let sample =
    List.concat_map
      (fun (ps, tr) -> List.map (fun (_, t) -> (ps, t)) (Events.Trace.bindings tr))
      [ (Datagen.Rtfm.patterns, rtfm); ([ f4.pattern ], f4.observed);
        ([ f6.pattern ], f6.observed) ]
  in
  List.iteri
    (fun i (ps, t) ->
      if not (price_agrees ~limit:max_int (Tcn.Encode.pattern_set ps) t) then
        Alcotest.failf "case %d: price differs from the LP optimum over %a" i
          Tuple.pp t)
    (cases @ sample)

(* On the unit-weight path a search prices its leaves and solves the LP
   once, for its winner; a weighted search still solves every leaf. *)
let test_one_solve_per_search () =
  let pat = Datagen.Workloads.fig11_pattern ~n:6 in
  let net = Tcn.Encode.pattern_set [ pat ] in
  let prepared = Explain.Bnb.prepare net in
  let prng = Numeric.Prng.create 7 in
  let calls = ref 0 in
  let repair ?weights t phis =
    incr calls;
    Explain.Lp_repair.repair ?weights t phis
  in
  let leaves = ref 0 in
  for _ = 1 to 10 do
    let t =
      Tcn.Encode.extend net
        (Datagen.Faults.tuple prng ~rate:0.5 ~distance:400
           (Datagen.Workloads.random_matching_tuple ~horizon:5000 prng [ pat ]))
    in
    calls := 0;
    let { Explain.Bnb.best; stats } =
      Explain.Bnb.search_prepared ~repair:(repair ?weights:None) prepared t
    in
    check_int "one solve, for the winner" (if Option.is_none best then 0 else 1) !calls;
    leaves := !leaves + stats.leaves_solved;
    calls := 0;
    let { Explain.Bnb.stats; _ } =
      Explain.Bnb.search_prepared
        ~repair:(repair ~weights:some_weights)
        ~weights:some_weights prepared t
    in
    check_int "a weighted search solves every leaf" stats.leaves_solved !calls
  done;
  check_bool "more leaves priced than searches" true (!leaves > 10)

(* The search is serial: [Bnb.search] keeps [?domains] for the one caller
   that passes [~domains:1], and rejects every other count. *)
let test_invalid_domains () =
  let net = Tcn.Encode.pattern_set [ p "SEQ(E1, E2) WITHIN 10" ] in
  let t = Tcn.Encode.extend net (Tuple.of_list [ ("E1", 0); ("E2", 5) ]) in
  List.iter
    (fun domains ->
      check_bool
        (Printf.sprintf "domains = %d rejected" domains)
        true
        (try
           ignore
             (Explain.Bnb.search ~domains ~repair:Explain.Lp_repair.repair net t);
           false
         with Invalid_argument _ -> true))
    [ 0; 2 ]

let suite =
  ( "bnb",
    [
      Gen.qt prop_bnb_equals_flat;
      Gen.qt prop_bnb_equals_flat_weighted;
      Gen.qt prop_bnb_equals_flat_bounded;
      Gen.qt prop_bnb_equals_flat_flow;
      Alcotest.test_case "bound on wider and nested ANDs" `Quick
        test_bound_nested_ands;
      Alcotest.test_case "paper example (Table 1)" `Quick test_paper_example;
      Alcotest.test_case "bound pruning on AND(E1..E6)" `Quick test_bnb_prunes;
      Alcotest.test_case "zero-cost short circuit" `Quick
        test_zero_cost_short_circuit;
      Alcotest.test_case "zero-cost stop pin" `Quick test_zero_stop_pin;
      Alcotest.test_case "invalid domain count" `Quick test_invalid_domains;
      Gen.qt (prop_price_exact 120);
      Gen.qt (prop_price_exact 2000);
      Alcotest.test_case "leaf price = LP = flow on fig10, fig11, RTFM, Flight"
        `Quick test_price_exact_workloads;
      Alcotest.test_case "one LP solve per unit-weight search" `Quick
        test_one_solve_per_search;
    ] )
