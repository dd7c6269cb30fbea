module Checked = Numeric.Checked
module Tuple = Events.Tuple

let max_active = 12

let observed ev tuple =
  let n = Array.length ev in
  let ts =
    Array.init (n + 1) (fun i -> if i = n then 0 else Tuple.find tuple ev.(i))
  in
  let lo = Array.fold_left Int.min 0 ts and hi = Array.fold_left Int.max 0 ts in
  if Checked.sub hi lo >= Tcn.Weight.inf then raise Checked.Overflow;
  ts

(* [observed] keeps every gap below [Tcn.Weight.inf] and closure distances
   lie within [-inf, inf], so these three differences stay within
   (-2 inf, 2 inf): nothing here wraps. *)
let viol dist ts i j =
  let delta = ts.(j) - ts.(i) (* check: arith - a gap of [observed] is below inf *) in
  let over = delta - dist i j (* check: arith - a gap minus a distance is within 2 inf *) in
  let under =
    Tcn.Weight.neg (dist j i) - delta (* check: arith - a distance minus a gap is within 2 inf *)
  in
  if over >= under then if over > 0 then over else 0
  else if under > 0 then under else 0

type t = {
  dist : int -> int -> int;
  ts : int array;
  origin : int;
  priced : int array;
  cand : int array; (* the loaded events, by closure index *)
  mutable k : int;
  pair : int array array;
      (* pair.(a).(b), a < b: the violation of cand.(a) and cand.(b);
         pair.(a).(a): that of cand.(a) with the origin *)
  active : bool array; (* per position: some violated pair *)
  act : int array; (* the active positions, ascending, after [price] *)
  mutable ka : int;
  mutable memo : int array; (* memo.(mask): see [best] *)
  mutable cost : int; (* the last price *)
}

let create dist ts priced =
  let m = Array.length priced in
  {
    dist;
    ts;
    origin = Array.length ts - 1;
    priced;
    cand = Array.make m 0;
    k = 0;
    pair = Array.make_matrix m m 0;
    active = Array.make m false;
    act = Array.make m 0;
    ka = 0;
    memo = [||];
    cost = 0;
  }

let load t keep =
  t.k <- 0;
  for p = 0 to Array.length t.priced - 1 do
    let i = t.priced.(p) in
    if keep i then begin
      t.cand.(t.k) <- i;
      t.k <- t.k + 1
    end
  done;
  Array.fill t.active 0 t.k false;
  for a = 0 to t.k - 1 do
    let row = t.pair.(a) and i = t.cand.(a) in
    let v = viol t.dist t.ts t.origin i in
    row.(a) <- v;
    if v > 0 then t.active.(a) <- true;
    for b = a + 1 to t.k - 1 do
      let v = viol t.dist t.ts i t.cand.(b) in
      row.(b) <- v;
      if v > 0 then begin
        t.active.(a) <- true;
        t.active.(b) <- true
      end
    done
  done

let size t = t.k
let event t a = t.cand.(a)
let violation t a b = t.pair.(a).(b)

let rec lowest_bit mask b = if mask land 1 = 1 then b else lowest_bit (mask lsr 1) (b + 1)

(* The heaviest matching of the active events in [mask] (bit [a] stands
   for position [act.(a)]): the lowest one pairs with the origin (0 when
   that pair is not violated) or with a later event of [mask]. *)
let rec best t mask =
  if mask = 0 then 0
  else if t.memo.(mask) >= 0 then t.memo.(mask)
  else begin
    let a = lowest_bit mask 0 in
    let rest = mask land (mask - 1) in
    let row = t.pair.(t.act.(a)) in
    let v = ref (Checked.add row.(t.act.(a)) (best t rest)) in
    for b = a + 1 to t.ka - 1 do
      if rest land (1 lsl b) <> 0 then begin
        let w = row.(t.act.(b)) in
        if w > 0 then v := Int.max !v (Checked.add w (best t (rest lxor (1 lsl b))))
      end
    done;
    t.memo.(mask) <- !v;
    !v
  end

let price t =
  t.ka <- 0;
  for a = 0 to t.k - 1 do
    if t.active.(a) then begin
      t.act.(t.ka) <- a;
      t.ka <- t.ka + 1
    end
  done;
  if t.ka > max_active then None
  else begin
    let size = 1 lsl t.ka in
    if Array.length t.memo < size then t.memo <- Array.make size (-1)
    else Array.fill t.memo 0 size (-1);
    t.cost <- best t (size - 1);
    Some t.cost
  end

(* One heaviest matching, traced back through the memo: [partner.(a)] is
   [-1] when active event [a] is unmatched (or matched with the origin at
   no violation), [t.ka] when it is matched with the origin, else the
   event it is matched with. *)
let rec trace t partner mask =
  if mask <> 0 then begin
    let a = lowest_bit mask 0 in
    let rest = mask land (mask - 1) in
    let row = t.pair.(t.act.(a)) in
    let target = best t mask in
    let w0 = row.(t.act.(a)) in
    if Checked.add w0 (best t rest) = target then begin
      partner.(a) <- (if w0 > 0 then t.ka else -1);
      trace t partner rest
    end
    else begin
      let b = partner_of t row rest target (a + 1) in
      partner.(a) <- b;
      partner.(b) <- a;
      trace t partner (rest lxor (1 lsl b))
    end
  end

and partner_of t row rest target b =
  if b >= t.ka then assert false (* [target] is attained by some choice *)
  else
    let w = row.(t.act.(b)) in
    if
      rest land (1 lsl b) <> 0
      && w > 0
      && Checked.add w (best t (rest lxor (1 lsl b))) = target
    then b
    else partner_of t row rest target (b + 1)

(* Displacements y = x - ts (the origin's is 0): the closure bounds
   y(j) - y(i) by d(i,j) - (ts(j) - ts(i)), or not at all where d(i,j) is
   unbounded. *)
let unbounded = max_int

let room t i j =
  let d = t.dist i j in
  if d >= Tcn.Weight.inf then unbounded
  else Checked.sub d (Checked.sub t.ts.(j) t.ts.(i))

let tighten m p q w = if w < m.(p).(q) then m.(p).(q) <- w

let read t ~free =
  let ka = t.ka in
  let node p = if p = ka then t.origin else t.cand.(t.act.(p)) in
  (* Over the active events and the origin (node [ka]): the closure's
     bounds on the displacements, then the conditions under which a
     repair costs exactly the matching's weight. *)
  let m =
    Array.init (ka + 1) (fun p ->
        Array.init (ka + 1) (fun q -> if p = q then 0 else room t (node p) (node q)))
  in
  let partner = Array.make ka (-1) in
  trace t partner ((1 lsl ka) - 1);
  let pin p = tighten m p ka 0; tighten m ka p 0 in
  for p = 0 to ka - 1 do
    let i = node p in
    let q = partner.(p) in
    if q < 0 then pin p (* unmatched: keeps its timestamp *)
    else if q = ka then begin
      (* matched with the origin: at the nearer end of its window *)
      let above = room t t.origin i in
      if above < 0 then tighten m p ka (Checked.neg above)
      else tighten m ka p (Checked.neg (room t i t.origin))
    end
    else if q > p then begin
      (* a matched pair: the gap closes exactly to its bound, each event
         moving towards the other *)
      let j = node q in
      let wide = room t i j in
      if wide < 0 then begin
        tighten m q p (Checked.neg wide);
        tighten m p ka 0;
        tighten m ka q 0
      end
      else begin
        tighten m p q (Checked.neg (room t j i));
        tighten m q ka 0;
        tighten m ka p 0
      end
    end
  done;
  (* an inactive event keeps its timestamp, so it bounds the active ones
     as the origin does *)
  for a = 0 to t.k - 1 do
    if not t.active.(a) then
      let c = t.cand.(a) in
      for p = 0 to ka - 1 do
        tighten m ka p (room t c (node p));
        tighten m p ka (room t (node p) c)
      done
  done;
  for r = 0 to ka do
    for p = 0 to ka do
      let mpr = m.(p).(r) in
      if mpr <> unbounded then
        for q = 0 to ka do
          let mrq = m.(r).(q) in
          if mrq <> unbounded then tighten m p q (Checked.add mpr mrq)
        done
    done
  done;
  (* every optimal repair satisfies these conditions, and one exists *)
  for p = 0 to ka do
    assert (m.(p).(p) >= 0)
  done;
  let x = Array.make (t.origin + 1) (-1) in
  (* [inside.(0 .. g - 1)]: the leaf's events and the origin *)
  let inside = Array.make (t.origin + 1) t.origin in
  let g = ref 1 in
  let enter i =
    inside.(!g) <- i;
    incr g
  in
  x.(t.origin) <- 0;
  for a = 0 to t.k - 1 do
    let i = t.cand.(a) in
    x.(i) <- t.ts.(i);
    enter i
  done;
  (* the least solution: each displacement as low as the conditions allow *)
  for p = 0 to ka - 1 do
    let i = node p in
    x.(i) <- Checked.sub t.ts.(i) m.(p).(ka)
  done;
  (* a free event at its earliest time given the priced ones *)
  for f = 0 to t.origin - 1 do
    if free f then begin
      let lo = ref (Checked.neg (t.dist f t.origin)) in
      for a = 0 to t.k - 1 do
        let j = t.cand.(a) in
        let d = t.dist f j in
        if d < Tcn.Weight.inf then lo := Int.max !lo (Checked.sub x.(j) d)
      done;
      x.(f) <- !lo;
      enter f
    end
  done;
  (* The certificate: [x] keeps every closure row among the leaf's events
     and the origin, and moves the priced events by exactly the price, a
     lower bound on every repair of the leaf. So [x] is an optimal
     repair, whatever the construction above. *)
  let cost = ref 0 in
  for a = 0 to t.k - 1 do
    let i = t.cand.(a) in
    cost := Checked.add !cost (Checked.abs (Checked.sub x.(i) t.ts.(i)))
  done;
  assert (!cost = t.cost);
  for a = 0 to !g - 1 do
    let u = inside.(a) in
    for b = 0 to !g - 1 do
      let v = inside.(b) in
      if v <> u then begin
        let d = t.dist u v in
        if d < Tcn.Weight.inf then assert (Checked.sub x.(v) x.(u) <= d)
      end
    done
  done;
  x

let repaired ev x =
  let t = ref Tuple.empty in
  for i = 0 to Array.length ev - 1 do
    if x.(i) >= 0 then t := Tuple.add ev.(i) x.(i) !t
  done;
  !t
