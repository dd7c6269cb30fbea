(* One above the largest span an accepted query or horizon can produce,
   so the sentinel never stands for a real bound. *)
let inf = Numeric.Checked.add Events.Time.max_span 1

(* check: sentinel - negating the positive sentinel cannot wrap *)
let clamp w = if w > inf then inf else if w < -inf then -inf else w

let neg w =
  if w = min_int then max_int
  else -w (* check: sentinel - min_int is handled on the previous line *)

let sat_add a b =
  let s = a + b (* check: sentinel - a wrapped sum is detected and pinned below *) in
  if a > 0 && b > 0 && s < 0 then max_int
  else if a < 0 && b < 0 && s >= 0 then min_int
  else s

let sat_sub a b =
  let d = a - b (* check: sentinel - a wrapped difference is detected and pinned below *) in
  if a >= 0 && b < 0 && d < 0 then max_int
  else if a < 0 && b >= 0 && d >= 0 then min_int
  else d

let sat_add3 a b c = sat_add (sat_add a b) c
