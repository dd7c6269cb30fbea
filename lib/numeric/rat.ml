type t = { num : int; den : int }

let make num den =
  if den = 0 then raise Division_by_zero
  else
    let num, den = if den < 0 then (Checked.neg num, Checked.neg den) else (num, den) in
    let g = Checked.gcd num den in
    if g = 0 then { num = 0; den = 1 } else { num = num / g; den = den / g }

let of_int n = { num = n; den = 1 }
let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)
let num r = r.num
let den r = r.den

(* Integer fast paths: when both denominators are 1, every gcd below is 1
   and [make] has nothing to reduce, so [add], [sub], [mul] and [compare]
   reduce to the one checked integer operation the general path performs
   on the numerators — same value, same [Checked.Overflow]. Over the repair
   LPs of the benchmark's explain mix, 4.7% of simplex cell writes produce
   a fraction (0.06% on RTFM cases, 11.9% on Flight-6 days). *)

(* a/b + c/d computed via the reduced denominators to delay overflow:
   g = gcd(b, d); result = (a*(d/g) + c*(b/g)) / (b*(d/g)). *)
let add a b =
  if a.den = 1 && b.den = 1 then { num = Checked.add a.num b.num; den = 1 }
  else
    let g = Checked.gcd a.den b.den in
    let db = b.den / g and da = a.den / g in
    make (Checked.add (Checked.mul a.num db) (Checked.mul b.num da)) (Checked.mul a.den db)

let neg a = { a with num = Checked.neg a.num }

let sub a b =
  if a.den = 1 && b.den = 1 then { num = Checked.add a.num (Checked.neg b.num); den = 1 }
  else add a (neg b)

(* Cross-reduce before multiplying to keep intermediates small. *)
let mul a b =
  if a.den = 1 && b.den = 1 then { num = Checked.mul a.num b.num; den = 1 }
  else
    let g1 = Checked.gcd a.num b.den and g2 = Checked.gcd b.num a.den in
    let g1 = if g1 = 0 then 1 else g1 and g2 = if g2 = 0 then 1 else g2 in
    make
      (Checked.mul (a.num / g1) (b.num / g2))
      (Checked.mul (a.den / g2) (b.den / g1))

let inv a = if a.num = 0 then raise Division_by_zero else make a.den a.num

(* Dividing by one is the identity ([a] is already normalized). *)
let div a b = if b.num = 1 && b.den = 1 then a else mul a (inv b)
let abs a = { a with num = Checked.abs a.num }
let sign a = Int.compare a.num 0

let compare a b =
  if a.den = 1 && b.den = 1 then Int.compare a.num b.num
  else
    (* Same trick as [add]: compare a.num*db with b.num*da. *)
    let g = Checked.gcd a.den b.den in
    let db = b.den / g and da = a.den / g in
    Int.compare (Checked.mul a.num db) (Checked.mul b.num da)

let equal a b = a.num = b.num && a.den = b.den
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let is_integer a = a.den = 1

let to_int_exn a =
  if a.den = 1 then a.num else invalid_arg "Rat.to_int_exn: not an integer"

(* Division truncates toward zero and the remainder takes the sign of
   [num] ([den > 0]), so a nonzero remainder moves the quotient by one
   toward the rounding direction. Only [den >= 2] leaves a remainder, so
   [q] is then at most [max_int / 2] in magnitude and the step cannot
   overflow. *)
let floor a =
  let q = a.num / a.den in
  if a.num mod a.den < 0 then q - 1 else q

let ceil a =
  let q = a.num / a.den in
  if a.num mod a.den > 0 then q + 1 else q

let to_float a = float_of_int a.num /. float_of_int a.den

let pp ppf a =
  if a.den = 1 then Format.fprintf ppf "%d" a.num
  else Format.fprintf ppf "%d/%d" a.num a.den

let to_string a = Format.asprintf "%a" pp a

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( ~- ) = neg
let ( = ) = equal
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
