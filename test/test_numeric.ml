open Whynot.Numeric

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Checked --- *)

let test_checked_basic () =
  check_int "add" 7 (Checked.add 3 4);
  check_int "sub" (-1) (Checked.sub 3 4);
  check_int "mul" 12 (Checked.mul 3 4);
  check_int "neg" (-3) (Checked.neg 3);
  check_int "abs" 3 (Checked.abs (-3));
  check_int "gcd" 6 (Checked.gcd 12 18);
  check_int "gcd neg" 6 (Checked.gcd (-12) 18);
  check_int "gcd zero" 5 (Checked.gcd 0 5)

let test_checked_overflow () =
  let raises f = Alcotest.check_raises "overflow" Checked.Overflow (fun () -> ignore (f ())) in
  raises (fun () -> Checked.add max_int 1);
  raises (fun () -> Checked.sub min_int 1);
  raises (fun () -> Checked.mul max_int 2);
  raises (fun () -> Checked.mul 2 max_int);
  raises (fun () -> Checked.neg min_int);
  raises (fun () -> Checked.abs min_int);
  check_int "edge ok" max_int (Checked.add (max_int - 1) 1);
  check_int "min+max" (-1) (Checked.add min_int max_int)

(* --- Rat --- *)

let rat = Alcotest.testable Rat.pp Rat.equal

let test_rat_normalization () =
  Alcotest.check rat "6/4 = 3/2" (Rat.make 3 2) (Rat.make 6 4);
  Alcotest.check rat "neg den" (Rat.make (-3) 2) (Rat.make 3 (-2));
  Alcotest.check rat "zero" Rat.zero (Rat.make 0 17);
  check_int "den positive" 2 (Rat.den (Rat.make 3 (-2)));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () -> ignore (Rat.make 1 0))

let test_rat_arith () =
  let half = Rat.make 1 2 and third = Rat.make 1 3 in
  Alcotest.check rat "1/2+1/3" (Rat.make 5 6) (Rat.add half third);
  Alcotest.check rat "1/2-1/3" (Rat.make 1 6) (Rat.sub half third);
  Alcotest.check rat "1/2*1/3" (Rat.make 1 6) (Rat.mul half third);
  Alcotest.check rat "1/2 / 1/3" (Rat.make 3 2) (Rat.div half third);
  Alcotest.check rat "inv" (Rat.make 3 1) (Rat.inv third);
  check_bool "lt" true Rat.(third < half);
  check_int "floor -3/2" (-2) (Rat.floor (Rat.make (-3) 2));
  check_int "ceil -3/2" (-1) (Rat.ceil (Rat.make (-3) 2));
  check_int "floor 3/2" 1 (Rat.floor (Rat.make 3 2));
  check_int "ceil 3/2" 2 (Rat.ceil (Rat.make 3 2));
  check_bool "is_integer" true (Rat.is_integer (Rat.of_int 5));
  check_bool "not integer" false (Rat.is_integer half);
  check_int "to_int_exn" 5 (Rat.to_int_exn (Rat.of_int 5))

let rat_gen : Rat.t QCheck.Gen.t =
 fun st ->
  let num = Random.State.int st 2001 - 1000 in
  let den = 1 + Random.State.int st 50 in
  Rat.make num den

let arb_rat = QCheck.make ~print:Rat.to_string rat_gen
let arb_rat2 = QCheck.pair arb_rat arb_rat
let arb_rat3 = QCheck.triple arb_rat arb_rat arb_rat

let prop_field =
  QCheck.Test.make ~name:"rat field laws" ~count:500 arb_rat3 (fun (a, b, c) ->
      Rat.equal (Rat.add a b) (Rat.add b a)
      && Rat.equal (Rat.mul a b) (Rat.mul b a)
      && Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c))
      && Rat.equal (Rat.mul (Rat.mul a b) c) (Rat.mul a (Rat.mul b c))
      && Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)))

let prop_sub_div =
  QCheck.Test.make ~name:"rat sub/div inverses" ~count:500 arb_rat2 (fun (a, b) ->
      Rat.equal (Rat.add (Rat.sub a b) b) a
      && (Rat.sign b = 0 || Rat.equal (Rat.mul (Rat.div a b) b) a))

let prop_compare_total =
  QCheck.Test.make ~name:"rat compare consistent with floats" ~count:500 arb_rat2
    (fun (a, b) ->
      let c = Rat.compare a b in
      let fa = Rat.to_float a and fb = Rat.to_float b in
      (c < 0 && fa < fb +. 1e-9)
      || (c > 0 && fa > fb -. 1e-9)
      || (c = 0 && abs_float (fa -. fb) < 1e-9))

let prop_floor_ceil =
  QCheck.Test.make ~name:"rat floor/ceil bracket" ~count:500 arb_rat (fun a ->
      let f = Rat.floor a and c = Rat.ceil a in
      Rat.(of_int f <= a)
      && Rat.(a <= of_int c)
      && c - f <= 1
      && (Rat.is_integer a = (f = c)))

(* Integer-heavy operands for the integer fast paths: mostly [den = 1],
   some numerators near +-max_int/2 (their products overflow, their sums
   and differences just fit). *)
let int_heavy_gen : Rat.t QCheck.Gen.t =
 fun st ->
  let big = max_int / 2 in
  let num =
    match Random.State.int st 10 with
    | 0 -> big - Random.State.int st 1000
    | 1 -> Random.State.int st 1000 - big
    | _ -> Random.State.int st 2001 - 1000
  in
  let den = if Random.State.int st 10 < 8 then 1 else 1 + Random.State.int st 50 in
  Rat.make num den

let arb_int_heavy2 =
  let arb = QCheck.make ~print:Rat.to_string int_heavy_gen in
  QCheck.pair arb arb

(* [op ()] against a reference built with [Rat.make] from the
   cross-multiplied numerator and denominator. Where the reference fits,
   the values must be equal. Where it overflows, integer operands must
   overflow too: their fast path is the same checked operation. Fractions
   may still fit, since [Rat] reduces before it multiplies. *)
let agrees ~ints op reference =
  match reference () with
  | r -> ( match op () with v -> Rat.equal v r | exception Checked.Overflow -> false)
  | exception Checked.Overflow -> (
      match op () with _ -> not ints | exception Checked.Overflow -> true)

let prop_int_fast_paths =
  QCheck.Test.make ~name:"rat integer fast paths = cross-multiplied references"
    ~count:2000 arb_int_heavy2 (fun (a, b) ->
      let an = Rat.num a and ad = Rat.den a and bn = Rat.num b and bd = Rat.den b in
      let ints = ad = 1 && bd = 1 in
      let cross f = f (Checked.mul an bd) (Checked.mul bn ad) in
      agrees ~ints
        (fun () -> Rat.add a b)
        (fun () -> Rat.make (cross Checked.add) (Checked.mul ad bd))
      && agrees ~ints
           (fun () -> Rat.sub a b)
           (fun () -> Rat.make (cross Checked.sub) (Checked.mul ad bd))
      && agrees ~ints
           (fun () -> Rat.mul a b)
           (fun () -> Rat.make (Checked.mul an bn) (Checked.mul ad bd))
      && (bn = 0
         || agrees ~ints:false
              (fun () -> Rat.div a b)
              (fun () -> Rat.make (Checked.mul an bd) (Checked.mul ad bn)))
      && (match cross Int.compare with
         | c -> Rat.compare a b = c
         | exception Checked.Overflow -> not ints))

let test_rat_fast_path_overflow () =
  let raises name f = Alcotest.check_raises name Checked.Overflow (fun () -> ignore (f ())) in
  raises "max_int + 1" (fun () -> Rat.add (Rat.of_int max_int) Rat.one);
  raises "max_int * 2" (fun () -> Rat.mul (Rat.of_int max_int) (Rat.of_int 2));
  raises "min_int - 1" (fun () -> Rat.sub (Rat.of_int min_int) Rat.one);
  Alcotest.check rat "x / 1 = x" (Rat.of_int max_int) (Rat.div (Rat.of_int max_int) Rat.one);
  Alcotest.check rat "3/4 / 1" (Rat.make 3 4) (Rat.div (Rat.make 3 4) Rat.one)

(* Rationals at the int limits, beside the integer-heavy ones: numerators
   a few steps from [max_int], [-max_int] and [min_int] over small
   denominators. *)
let extreme_gen : Rat.t QCheck.Gen.t =
 fun st ->
  if Random.State.bool st then int_heavy_gen st
  else
    let k = Random.State.int st 4 in
    let num =
      match Random.State.int st 3 with
      | 0 -> max_int - k
      | 1 -> k - max_int
      | _ -> min_int + k
    in
    Rat.make num (1 + Random.State.int st 4)

let test_rat_floor_ceil_limits () =
  let half = (max_int / 2) + 1 in
  check_int "ceil (max_int / 2)" half (Rat.ceil (Rat.make max_int 2));
  check_int "floor (max_int / 2)" (half - 1) (Rat.floor (Rat.make max_int 2));
  check_int "floor (-max_int / 2)" (-half) (Rat.floor (Rat.make (-max_int) 2));
  check_int "ceil (-max_int / 2)" (1 - half) (Rat.ceil (Rat.make (-max_int) 2));
  check_int "floor min_int" min_int (Rat.floor (Rat.make min_int 1));
  check_int "ceil min_int" min_int (Rat.ceil (Rat.make min_int 1));
  let third = max_int / 3 in
  check_int "floor ((max_int - 2) / 3)" (third - 1) (Rat.floor (Rat.make (max_int - 2) 3));
  check_int "ceil ((max_int - 2) / 3)" third (Rat.ceil (Rat.make (max_int - 2) 3))

let prop_floor_ceil_limits =
  QCheck.Test.make ~name:"rat floor/ceil bracket at the int limits" ~count:2000
    (QCheck.make ~print:Rat.to_string extreme_gen) (fun a ->
      let f = Rat.floor a and c = Rat.ceil a in
      if Rat.is_integer a then f = Rat.num a && c = Rat.num a
      else
        (* [a] and the bounds shifted by the truncation [q], so that the
           cross-products of [Rat.compare] stay far from the limits. *)
        let q = Rat.num a / Rat.den a in
        let cmp k = Rat.compare (Rat.sub a (Rat.of_int q)) (Rat.of_int (k - q)) in
        cmp f >= 0 && cmp (f + 1) < 0 && cmp (c - 1) > 0 && cmp c <= 0)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Prng.next64 a = Prng.next64 b)
  done;
  let c = Prng.create 43 in
  check_bool "different seed differs" true (Prng.next64 (Prng.create 42) <> Prng.next64 c)

let test_prng_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 10 in
    check_bool "int in range" true (v >= 0 && v < 10);
    let v = Prng.int_in g (-5) 5 in
    check_bool "int_in range" true (v >= -5 && v <= 5);
    let f = Prng.float g 2.0 in
    check_bool "float range" true (f >= 0.0 && f < 2.0)
  done

let test_prng_uniformity () =
  let g = Prng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      check_bool "bucket within 10% of uniform" true
        (abs (c - (n / 10)) < n / 100))
    buckets

let test_prng_shuffle_permutes () =
  let g = Prng.create 3 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let qt = Gen.qt

let suite =
  ( "numeric",
    [
      Alcotest.test_case "checked basics" `Quick test_checked_basic;
      Alcotest.test_case "checked overflow" `Quick test_checked_overflow;
      Alcotest.test_case "rat normalization" `Quick test_rat_normalization;
      Alcotest.test_case "rat arithmetic" `Quick test_rat_arith;
      qt prop_field;
      qt prop_sub_div;
      qt prop_compare_total;
      qt prop_floor_ceil;
      Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
      Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
      Alcotest.test_case "prng uniformity" `Quick test_prng_uniformity;
      Alcotest.test_case "prng shuffle" `Quick test_prng_shuffle_permutes;
      qt prop_int_fast_paths;
      Alcotest.test_case "rat fast paths overflow" `Quick test_rat_fast_path_overflow;
      Alcotest.test_case "rat floor/ceil at the int limits" `Quick test_rat_floor_ceil_limits;
      qt prop_floor_ceil_limits;
    ] )
