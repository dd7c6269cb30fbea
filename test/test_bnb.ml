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
        (explain (Modification.Bnb { domains = 1 }) pat t))

let prop_bnb_equals_flat_weighted =
  QCheck.Test.make ~name:"BnB = flat under per-event weights" ~count:100
    (Gen.pattern_and_tuple ~horizon:120 ())
    (fun (pat, t) ->
      equal_result
        (explain Modification.Flat ~weights:some_weights pat t)
        (explain (Modification.Bnb { domains = 1 }) ~weights:some_weights pat t))

let prop_bnb_equals_flat_bounded =
  QCheck.Test.make ~name:"BnB = flat under plausibility bounds" ~count:100
    (Gen.pattern_and_tuple ~horizon:120 ())
    (fun (pat, t) ->
      equal_result
        (explain Modification.Flat ~bounds:some_bounds pat t)
        (explain (Modification.Bnb { domains = 1 }) ~bounds:some_bounds pat t))

let prop_bnb_equals_flat_flow =
  QCheck.Test.make ~name:"BnB = flat with the flow solver" ~count:100
    (Gen.pattern_and_tuple ~horizon:120 ())
    (fun (pat, t) ->
      equal_result
        (explain Modification.Flat ~solver:Modification.Flow pat t)
        (explain (Modification.Bnb { domains = 1 }) ~solver:Modification.Flow
           pat t))

let prop_parallel_equals_serial =
  QCheck.Test.make ~name:"parallel BnB = serial BnB" ~count:80
    (Gen.pattern_and_tuple ~horizon:120 ())
    (fun (pat, t) ->
      equal_result
        (explain (Modification.Bnb { domains = 1 }) pat t)
        (explain (Modification.Bnb { domains = 3 }) pat t))

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
        let bnb = explain (Modification.Bnb { domains = 1 }) ?weights ?bounds pat t in
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
  let bnb = explain (Modification.Bnb { domains = 1 }) p0 t2 in
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
    (explain Modification.Flat pat t, explain (Modification.Bnb { domains = 1 }) pat t)
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
  match explain (Modification.Bnb { domains = 1 }) pat t with
  | Some { cost; repaired; _ } ->
      check_int "already an answer: cost 0" 0 cost;
      check_bool "tuple unchanged" true (Tuple.equal t repaired)
  | None -> Alcotest.fail "expected a zero-cost repair"

let test_invalid_domains () =
  let pat = p "SEQ(E1, E2) WITHIN 10" in
  let t = Tuple.of_list [ ("E1", 0); ("E2", 5) ] in
  check_bool "domains < 1 rejected" true
    (try
       ignore (explain (Modification.Bnb { domains = 0 }) pat t);
       false
     with Invalid_argument _ -> true)

let suite =
  ( "bnb",
    [
      Gen.qt prop_bnb_equals_flat;
      Gen.qt prop_bnb_equals_flat_weighted;
      Gen.qt prop_bnb_equals_flat_bounded;
      Gen.qt prop_bnb_equals_flat_flow;
      Gen.qt prop_parallel_equals_serial;
      Alcotest.test_case "bound on wider and nested ANDs" `Quick
        test_bound_nested_ands;
      Alcotest.test_case "paper example (Table 1)" `Quick test_paper_example;
      Alcotest.test_case "bound pruning on AND(E1..E6)" `Quick test_bnb_prunes;
      Alcotest.test_case "zero-cost short circuit" `Quick
        test_zero_cost_short_circuit;
      Alcotest.test_case "invalid domain count" `Quick test_invalid_domains;
    ] )
