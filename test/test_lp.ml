open Whynot
module Rat = Numeric.Rat
module Simplex = Lp.Simplex
module Ilp = Lp.Ilp
module Mcf = Lp.Mcf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rat = Alcotest.testable Rat.pp Rat.equal
let r = Rat.of_int

let optimal_or_fail = function
  | Simplex.Optimal { objective; values } -> (objective, values)
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

(* min x + y  s.t. x + 2y >= 4, 3x + y >= 6  ->  optimum at (8/5, 6/5). *)
let test_simplex_basic_ge () =
  let m = Simplex.create () in
  let x = Simplex.add_var m and y = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x); (r 2, y) ] Simplex.Ge (r 4);
  Simplex.add_constraint m [ (r 3, x); (r 1, y) ] Simplex.Ge (r 6);
  Simplex.set_objective m [ (r 1, x); (r 1, y) ];
  let objective, values = optimal_or_fail (Simplex.solve m) in
  Alcotest.check rat "objective 14/5" (Rat.make 14 5) objective;
  Alcotest.check rat "x = 8/5" (Rat.make 8 5) values.(x);
  Alcotest.check rat "y = 6/5" (Rat.make 6 5) values.(y)

(* max x + y via min of negation, under x <= 3, y <= 2. *)
let test_simplex_le_max () =
  let m = Simplex.create () in
  let x = Simplex.add_var m and y = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x) ] Simplex.Le (r 3);
  Simplex.add_constraint m [ (r 1, y) ] Simplex.Le (r 2);
  Simplex.set_objective m [ (r (-1), x); (r (-1), y) ];
  let objective, _ = optimal_or_fail (Simplex.solve m) in
  Alcotest.check rat "objective -5" (r (-5)) objective

let test_simplex_eq () =
  let m = Simplex.create () in
  let x = Simplex.add_var m and y = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x); (r 1, y) ] Simplex.Eq (r 10);
  Simplex.add_constraint m [ (r 1, x); (r (-1), y) ] Simplex.Eq (r 4);
  Simplex.set_objective m [ (r 1, x) ];
  let _, values = optimal_or_fail (Simplex.solve m) in
  Alcotest.check rat "x = 7" (r 7) values.(x);
  Alcotest.check rat "y = 3" (r 3) values.(y)

let test_simplex_infeasible () =
  let m = Simplex.create () in
  let x = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x) ] Simplex.Le (r 1);
  Simplex.add_constraint m [ (r 1, x) ] Simplex.Ge (r 2);
  Simplex.set_objective m [ (r 1, x) ];
  check_bool "infeasible" true (Simplex.solve m = Simplex.Infeasible)

let test_simplex_unbounded () =
  let m = Simplex.create () in
  let x = Simplex.add_var m and y = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x); (r (-1), y) ] Simplex.Le (r 1);
  Simplex.set_objective m [ (r (-1), x) ];
  check_bool "unbounded" true (Simplex.solve m = Simplex.Unbounded)

let test_simplex_negative_rhs () =
  (* x - y <= -2 with min x: x = 0 forces y >= 2, fine; rhs normalisation
     path must flip the row. *)
  let m = Simplex.create () in
  let x = Simplex.add_var m and y = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x); (r (-1), y) ] Simplex.Le (r (-2));
  Simplex.set_objective m [ (r 1, x); (r 1, y) ];
  let objective, _ = optimal_or_fail (Simplex.solve m) in
  Alcotest.check rat "objective 2" (r 2) objective

let test_simplex_degenerate () =
  (* Redundant constraints force degenerate pivots; Bland must terminate. *)
  let m = Simplex.create () in
  let x = Simplex.add_var m and y = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x); (r 1, y) ] Simplex.Ge (r 2);
  Simplex.add_constraint m [ (r 2, x); (r 2, y) ] Simplex.Ge (r 4);
  Simplex.add_constraint m [ (r 1, x); (r 1, y) ] Simplex.Le (r 2);
  Simplex.set_objective m [ (r 3, x); (r 1, y) ];
  let objective, _ = optimal_or_fail (Simplex.solve m) in
  Alcotest.check rat "objective 2 (all mass on y)" (r 2) objective

let test_simplex_copy_isolated () =
  let m = Simplex.create () in
  let x = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x) ] Simplex.Le (r 5);
  Simplex.set_objective m [ (r (-1), x) ];
  let m2 = Simplex.copy m in
  Simplex.add_constraint m2 [ (r 1, x) ] Simplex.Le (r 3);
  let o1, _ = optimal_or_fail (Simplex.solve m) in
  let o2, _ = optimal_or_fail (Simplex.solve m2) in
  Alcotest.check rat "original unchanged" (r (-5)) o1;
  Alcotest.check rat "copy constrained" (r (-3)) o2

(* Random feasible-by-construction LPs: simplex must find an optimum no
   worse than the known feasible point, and the optimum must be feasible.
   The generator returns the model with its rows (terms, sense, rhs) and
   its costs, so the optimum can be checked against them. *)
type random_lp = {
  model : Simplex.model;
  rows : ((Rat.t * Simplex.var) list * Simplex.sense * Rat.t) list;
  costs : (Rat.t * Simplex.var) list;
  feasible_cost : Rat.t;
}

let random_lp_gen : random_lp QCheck.Gen.t =
 fun st ->
  let n = 2 + Random.State.int st 4 in
  let model = Simplex.create () in
  let vars = List.init n (fun _ -> Simplex.add_var model) in
  let point = List.map (fun _ -> Random.State.int st 10) vars in
  let rows =
    List.init (1 + Random.State.int st 5) (fun _ ->
        let coeffs = List.map (fun _ -> Random.State.int st 7 - 3) vars in
        let value =
          List.fold_left2 (fun acc c x -> acc + (c * x)) 0 coeffs point
        in
        let slack = Random.State.int st 5 in
        let terms = List.map2 (fun c v -> (r c, v)) coeffs vars in
        let sense, rhs =
          if Random.State.bool st then (Simplex.Le, r (value + slack))
          else (Simplex.Ge, r (value - slack))
        in
        Simplex.add_constraint model terms sense rhs;
        (terms, sense, rhs))
  in
  let costs = List.map (fun _ -> Random.State.int st 5) vars in
  let feasible_cost =
    List.fold_left2 (fun acc c x -> acc + (c * x)) 0 costs point
  in
  let costs = List.map2 (fun c v -> (r c, v)) costs vars in
  Simplex.set_objective model costs;
  { model; rows; costs; feasible_cost = r feasible_cost }

(* [sum terms] at [values], in exact rationals. *)
let dot terms values =
  List.fold_left (fun acc (c, v) -> Rat.add acc (Rat.mul c values.(v))) Rat.zero terms

let prop_simplex_sound =
  QCheck.Test.make ~name:"simplex: optimal <= known feasible point" ~count:200
    (QCheck.make random_lp_gen) (fun lp ->
      match Simplex.solve lp.model with
      | Simplex.Optimal { objective; values } ->
          Rat.compare objective lp.feasible_cost <= 0
          && Array.for_all (fun x -> Rat.sign x >= 0) values
          && List.for_all
               (fun (terms, sense, rhs) ->
                 let c = Rat.compare (dot terms values) rhs in
                 match sense with
                 | Simplex.Le -> c <= 0
                 | Simplex.Ge -> c >= 0
                 | Simplex.Eq -> c = 0)
               lp.rows
          && Rat.equal objective (dot lp.costs values)
      | Simplex.Infeasible -> false (* feasible by construction *)
      | Simplex.Unbounded -> true (* nonneg costs make this rare but legal *))

(* --- ILP --- *)

let test_ilp_integral_passthrough () =
  let m = Simplex.create () in
  let x = Simplex.add_var m in
  Simplex.add_constraint m [ (r 1, x) ] Simplex.Ge (r 3);
  Simplex.set_objective m [ (r 1, x) ];
  match Ilp.solve m with
  | Ilp.Optimal { objective; values } ->
      Alcotest.check rat "objective" (r 3) objective;
      check_int "x" 3 values.(x)
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_branches () =
  (* min -x - y s.t. 2x + 2y <= 5: LP gives 5/2 total, ILP must settle on
     x + y = 2. *)
  let m = Simplex.create () in
  let x = Simplex.add_var m and y = Simplex.add_var m in
  Simplex.add_constraint m [ (r 2, x); (r 2, y) ] Simplex.Le (r 5);
  Simplex.set_objective m [ (r (-1), x); (r (-1), y) ];
  check_bool "relaxation fractional" true (Ilp.relaxation_is_integral m = Some false);
  match Ilp.solve m with
  | Ilp.Optimal { objective; values } ->
      Alcotest.check rat "objective -2" (r (-2)) objective;
      check_int "sum integral" 2 (values.(x) + values.(y))
  | _ -> Alcotest.fail "expected optimal"

let test_ilp_infeasible_by_integrality () =
  (* 2x = 3 has a fractional LP solution but no integer one. *)
  let m = Simplex.create () in
  let x = Simplex.add_var m in
  Simplex.add_constraint m [ (r 2, x) ] Simplex.Eq (r 3);
  Simplex.set_objective m [ (r 1, x) ];
  check_bool "ILP infeasible" true (Ilp.solve m = Ilp.Infeasible)

(* --- MCF --- *)

let test_mcf_no_negative_cycle () =
  let g = Mcf.create 3 in
  let _ = Mcf.add_edge g ~src:0 ~dst:1 ~cap:5 ~cost:2 in
  let _ = Mcf.add_edge g ~src:1 ~dst:2 ~cap:5 ~cost:2 in
  let _ = Mcf.add_edge g ~src:2 ~dst:0 ~cap:5 ~cost:2 in
  check_int "all-positive cycle: no flow" 0 (Mcf.min_cost_circulation g)

let test_mcf_cancels_negative_cycle () =
  let g = Mcf.create 3 in
  let e1 = Mcf.add_edge g ~src:0 ~dst:1 ~cap:4 ~cost:(-3) in
  let e2 = Mcf.add_edge g ~src:1 ~dst:2 ~cap:2 ~cost:1 in
  let e3 = Mcf.add_edge g ~src:2 ~dst:0 ~cap:5 ~cost:1 in
  (* Cycle cost -1, bottleneck 2. *)
  check_int "total cost" (-2) (Mcf.min_cost_circulation g);
  check_int "flow e1" 2 (Mcf.flow g e1);
  check_int "flow e2" 2 (Mcf.flow g e2);
  check_int "flow e3" 2 (Mcf.flow g e3)

let test_mcf_parallel_cycles () =
  let g = Mcf.create 2 in
  let cheap = Mcf.add_edge g ~src:0 ~dst:1 ~cap:3 ~cost:(-5) in
  let pricey = Mcf.add_edge g ~src:0 ~dst:1 ~cap:3 ~cost:(-1) in
  let back = Mcf.add_edge g ~src:1 ~dst:0 ~cap:4 ~cost:2 in
  (* Saturate the cheap arc (3 units at -3 each), then one more unit through
     the pricier arc (+1 net): only the cheap cycle is profitable. *)
  check_int "total" (-9) (Mcf.min_cost_circulation g);
  check_int "cheap saturated" 3 (Mcf.flow g cheap);
  check_int "pricey untouched" 0 (Mcf.flow g pricey);
  check_int "return flow" 3 (Mcf.flow g back)

let test_mcf_residual_distances () =
  let g = Mcf.create 3 in
  let _ = Mcf.add_edge g ~src:0 ~dst:1 ~cap:5 ~cost:4 in
  let _ = Mcf.add_edge g ~src:1 ~dst:2 ~cap:5 ~cost:1 in
  let _ = Mcf.add_edge g ~src:0 ~dst:2 ~cap:5 ~cost:10 in
  ignore (Mcf.min_cost_circulation g);
  let d = Mcf.residual_distances g ~source:0 in
  check_bool "d0" true (d.(0) = Some 0);
  check_bool "d1" true (d.(1) = Some 4);
  check_bool "d2 via 1" true (d.(2) = Some 5)

let test_mcf_validation () =
  let g = Mcf.create 2 in
  Alcotest.check_raises "bad node" (Invalid_argument "Mcf.add_edge: node out of range")
    (fun () -> ignore (Mcf.add_edge g ~src:0 ~dst:7 ~cap:1 ~cost:0));
  Alcotest.check_raises "negative cap" (Invalid_argument "Mcf.add_edge: negative capacity")
    (fun () -> ignore (Mcf.add_edge g ~src:0 ~dst:1 ~cap:(-1) ~cost:0))

(* --- Pinned fractional and overflow behaviour ---

   Bland's rule over exact rationals makes every solve deterministic, so
   the outcomes and [simplex.*] counter deltas of a fixed set of LPs pin
   the arithmetic as well as the pivots. The LPs below have rational
   coefficients, [Eq] rows and negative right-hand sides, so their
   tableaux hold fractions, and their few large coefficients make some
   solves raise [Checked.Overflow]. The expected values were recorded on
   the tableau of boxed rationals. *)

module Prng = Numeric.Prng
module Checked = Numeric.Checked

let simplex_counters =
  [ "simplex.solves"; "simplex.pivots"; "simplex.phase1_iters"; "simplex.phase2_iters";
    "simplex.degenerate_pivots"; "simplex.infeasible" ]

(* [f ()] as a line: its outcome (or the exception it raised), then the
   counter deltas it caused. *)
let pinned_line f =
  let read () =
    List.map (fun n -> Option.value ~default:0 (Obs.find_counter n)) simplex_counters
  in
  let before = read () in
  let outcome =
    try f () with
    | Checked.Overflow -> "overflow"
    | Failure msg -> msg
  in
  let deltas = List.map2 ( - ) (read ()) before in
  String.concat " " (outcome :: List.map string_of_int deltas)

let simplex_line m = pinned_line (fun () -> Format.asprintf "%a" Simplex.pp_outcome (Simplex.solve m))

let random_rational_lp g =
  let m = Simplex.create () in
  let vars = List.init (2 + Prng.int g 4) (fun _ -> Simplex.add_var m) in
  let coeff () =
    match Prng.int g 20 with
    | 0 -> Rat.make (Prng.int_in g (-(1 lsl 40)) (1 lsl 40)) (1 + Prng.int g 7)
    | k when k < 6 -> Rat.zero
    | _ -> Rat.make (Prng.int_in g (-9) 9) (1 + Prng.int g 4)
  in
  for _ = 1 to 1 + Prng.int g 5 do
    let terms = List.map (fun v -> (coeff (), v)) vars in
    let sense = Prng.choose g [| Simplex.Le; Simplex.Ge; Simplex.Eq |] in
    Simplex.add_constraint m terms sense (Rat.make (Prng.int_in g (-20) 20) (1 + Prng.int g 3))
  done;
  Simplex.set_objective m
    (List.map (fun v -> (Rat.make (Prng.int_in g (-3) 9) (1 + Prng.int g 2), v)) vars);
  m

(* The ILP budget is small because a branching that never reaches an
   integer point grows its model by one row per level: at 200 nodes such
   a run re-solves ~100-row tableaux for ~10k pivots. *)
let test_simplex_pin_fractional () =
  let g = Prng.create 16 in
  let overflows = ref 0 and fractional = ref 0 in
  let buf = Buffer.create 65536 in
  for _ = 1 to 1000 do
    let m = random_rational_lp g in
    let relaxation =
      pinned_line (fun () ->
          let o = Simplex.solve m in
          (match o with
          | Simplex.Optimal { values; _ } when not (Array.for_all Rat.is_integer values) ->
              incr fractional
          | _ -> ());
          Format.asprintf "%a" Simplex.pp_outcome o)
    in
    if String.starts_with ~prefix:"overflow" relaxation then incr overflows;
    let ilp =
      pinned_line (fun () ->
          match Ilp.solve ~max_nodes:40 m with
          | Ilp.Optimal { objective; values } ->
              Format.asprintf "optimal %a at %s" Rat.pp objective
                (String.concat "," (Array.to_list (Array.map string_of_int values)))
          | Ilp.Infeasible -> "infeasible"
          | Ilp.Unbounded -> "unbounded")
    in
    Buffer.add_string buf (relaxation ^ " | " ^ ilp ^ "\n")
  done;
  check_int "simplex overflows" 97 !overflows;
  check_int "fractional optima" 211 !fractional;
  Alcotest.(check string) "outcome digest" "880a329ad8353eaf515f5abf0bc66f0e"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* x*K + y >= 1, x + y*K >= 1, minimise x + y: the optimum 2/(K+1) at
   x = y = 1/(K+1) fits for K = 2^20; the second pivot's products
   overflow for K = 2^30, and the first pivot's for K = 2^31. *)
let test_simplex_pin_overflow () =
  let line k =
    let m = Simplex.create () in
    let x = Simplex.add_var m and y = Simplex.add_var m in
    Simplex.add_constraint m [ (r k, x); (r 1, y) ] Simplex.Ge (r 1);
    Simplex.add_constraint m [ (r 1, x); (r k, y) ] Simplex.Ge (r 1);
    Simplex.set_objective m [ (r 1, x); (r 1, y) ];
    simplex_line m
  in
  let check k expected = Alcotest.(check string) (Printf.sprintf "K = %d" k) expected (line k) in
  check (1 lsl 20) "optimal 2/1048577 at [1/1048577, 1/1048577] 1 2 3 1 0 0";
  check (1 lsl 30) "overflow 1 2 2 0 0 0";
  check (1 lsl 31) "overflow 1 1 1 0 0 0"

let qt = Gen.qt

let suite =
  ( "lp",
    [
      Alcotest.test_case "simplex >= constraints" `Quick test_simplex_basic_ge;
      Alcotest.test_case "simplex <= constraints (max)" `Quick test_simplex_le_max;
      Alcotest.test_case "simplex equalities" `Quick test_simplex_eq;
      Alcotest.test_case "simplex infeasible" `Quick test_simplex_infeasible;
      Alcotest.test_case "simplex unbounded" `Quick test_simplex_unbounded;
      Alcotest.test_case "simplex negative rhs" `Quick test_simplex_negative_rhs;
      Alcotest.test_case "simplex degenerate (Bland)" `Quick test_simplex_degenerate;
      Alcotest.test_case "simplex copy isolation" `Quick test_simplex_copy_isolated;
      qt prop_simplex_sound;
      Alcotest.test_case "ilp integral passthrough" `Quick test_ilp_integral_passthrough;
      Alcotest.test_case "ilp branches on fractional" `Quick test_ilp_branches;
      Alcotest.test_case "ilp integrality infeasible" `Quick test_ilp_infeasible_by_integrality;
      Alcotest.test_case "mcf positive cycle idle" `Quick test_mcf_no_negative_cycle;
      Alcotest.test_case "mcf cancels negative cycle" `Quick test_mcf_cancels_negative_cycle;
      Alcotest.test_case "mcf picks cheapest cycle" `Quick test_mcf_parallel_cycles;
      Alcotest.test_case "mcf residual distances" `Quick test_mcf_residual_distances;
      Alcotest.test_case "mcf validation" `Quick test_mcf_validation;
      Alcotest.test_case "simplex pin: rational LPs and their ILPs" `Quick
        test_simplex_pin_fractional;
      Alcotest.test_case "simplex pin: overflow points" `Quick test_simplex_pin_overflow;
    ] )
