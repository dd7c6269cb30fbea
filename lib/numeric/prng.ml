type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }
let copy g = { state = g.state }

let next64 g =
  g.state <- Int64.add g.state golden_gamma;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value survives the 63-bit native int; modulo bias
     is negligible at this width. *)
  let r = Int64.to_int (Int64.shift_right_logical (next64 g) 2) in
  r mod bound

let int_in g lo hi =
  if lo > hi then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

let float g bound =
  let r = Int64.to_float (Int64.shift_right_logical (next64 g) 11) in
  bound *. r /. 9007199254740992.0 (* 2^53 *)

let bool g = Int64.logand (next64 g) 1L = 1L
let coin g p = float g 1.0 < p

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose g a =
  if Array.length a = 0 then invalid_arg "Prng.choose: empty array";
  a.(int g (Array.length a))
