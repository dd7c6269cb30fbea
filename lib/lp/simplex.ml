module Rat = Numeric.Rat
module Checked = Numeric.Checked

type var = int
type sense = Le | Ge | Eq

type constr = { terms : (Rat.t * var) list; sense : sense; rhs : Rat.t }

type model = {
  mutable nvars : int;
  mutable constraints : constr list; (* reversed *)
  mutable objective : (Rat.t * var) list;
}

type outcome =
  | Optimal of { objective : Rat.t; values : Rat.t array }
  | Infeasible
  | Unbounded

let solves_c = Obs.counter "simplex.solves"
let pivots_c = Obs.counter "simplex.pivots"
let phase1_c = Obs.counter "simplex.phase1_iters"
let phase2_c = Obs.counter "simplex.phase2_iters"
let degenerate_c = Obs.counter "simplex.degenerate_pivots"
let infeasible_c = Obs.counter "simplex.infeasible"
let solve_s = Obs.span "simplex.solve"

let create () = { nvars = 0; constraints = []; objective = [] }
let copy m = { nvars = m.nvars; constraints = m.constraints; objective = m.objective }

let add_var m =
  let v = m.nvars in
  m.nvars <- v + 1;
  v

let num_vars m = m.nvars

let add_constraint m terms sense rhs =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= m.nvars then invalid_arg "Simplex.add_constraint: unknown variable")
    terms;
  m.constraints <- { terms; sense; rhs } :: m.constraints

let set_objective m terms =
  List.iter
    (fun (_, v) ->
      if v < 0 || v >= m.nvars then invalid_arg "Simplex.set_objective: unknown variable")
    terms;
  m.objective <- terms

(* Raised by phase 1 when the artificials cannot all reach zero. *)
exception Phase1_infeasible

(* A tableau row: unboxed ints, updated in place, while every cell is an
   integer, and exact rationals from its first fraction on (it stays
   rational for the rest of the solve). Integer cells take exactly the
   [Checked] operations that [Rat]'s integer fast paths perform, and
   fractions are computed by the [Rat] functions themselves, so every value
   and every [Checked.Overflow] is that of an all-[Rat] tableau. *)
type row = Ints of int array | Rats of Rat.t array

(* The tableau holds one row per constraint, then the reduced-cost row as
   the last row. Column layout: structural variables, then slacks/surpluses,
   then artificials, then the right-hand side as the last column. *)

type tableau = {
  rows : row array; (* rows.(nrows) = reduced costs; last cell = -(objective) *)
  nrows : int; (* constraint rows *)
  basis : int array; (* basis.(i) = column basic in row i *)
  width : int; (* number of variable columns (rhs excluded) *)
  nz : int array; (* reused buffer: the pivot row's nonzero columns *)
}

let sign row j = match row with Ints a -> Int.compare a.(j) 0 | Rats a -> Rat.sign a.(j)
let cell row j = match row with Ints a -> Rat.of_int a.(j) | Rats a -> a.(j)

(* Row [i] becomes rational, its cells converted exactly. *)
let to_rats tb i a =
  let r = Array.map Rat.of_int a in
  tb.rows.(i) <- Rats r;
  r

(* The nonzero columns of [row], into [tb.nz]; returns their count. *)
let nonzeros tb row =
  let nz = tb.nz and n = ref 0 in
  (match row with
  | Ints a ->
      for j = 0 to tb.width do
        if a.(j) <> 0 then begin
          nz.(!n) <- j;
          incr n
        end
      done
  | Rats a ->
      for j = 0 to tb.width do
        if Rat.sign a.(j) <> 0 then begin
          nz.(!n) <- j;
          incr n
        end
      done);
  !n

(* [t <- t - f * s] over the columns [cols.(0 .. n-1)], in integers, as
   [Rat.sub t (Rat.mul f s)] computes it for denominators of 1. A product
   by 1 is [s] itself, and a product by -1 is [-s], which overflows only
   at [min_int]. *)
let axpy_ints t f s cols n =
  if f = 1 then
    for q = 0 to n - 1 do
      let j = cols.(q) in
      t.(j) <- Checked.add t.(j) (Checked.neg s.(j))
    done
  else if f = -1 then
    for q = 0 to n - 1 do
      let j = cols.(q) in
      let v = s.(j) in
      if v = min_int then raise Checked.Overflow;
      t.(j) <- Checked.add t.(j) v
    done
  else
    for q = 0 to n - 1 do
      let j = cols.(q) in
      t.(j) <- Checked.add t.(j) (Checked.neg (Checked.mul f s.(j)))
    done

(* [Rat.mul f s] for an integer [s]: a product by 1 is [f] itself, and a
   product by -1 is [Rat.neg f], which overflows where the product does. *)
let mul_int f s = if s = 1 then f else if s = -1 then Rat.neg f else Rat.mul f (Rat.of_int s)

(* [Rat.mul f s], through [mul_int] when either factor is an integer. *)
let mul f s =
  if Rat.is_integer s then mul_int f (Rat.num s)
  else if Rat.is_integer f then mul_int s (Rat.num f)
  else Rat.mul f s

(* [t <- t - f * src] in rationals over [cols.(from .. n-1)]. *)
let axpy_rats t f src cols from n =
  match src with
  | Rats s ->
      for q = from to n - 1 do
        let j = cols.(q) in
        t.(j) <- Rat.sub t.(j) (mul f s.(j))
      done
  | Ints s ->
      for q = from to n - 1 do
        let j = cols.(q) in
        t.(j) <- Rat.sub t.(j) (mul_int f s.(j))
      done

(* [t <- t - f * s] for the integer row [i] and a rational source, from
   [cols.(q)] on: cells stay in place while the results are integers, and
   the row turns rational at its first fraction. *)
let rec axpy_into_ints tb i t f s q n =
  if q < n then begin
    let j = tb.nz.(q) in
    let v = Rat.sub (Rat.of_int t.(j)) (mul f s.(j)) in
    if Rat.is_integer v then begin
      t.(j) <- Rat.num v;
      axpy_into_ints tb i t f s (q + 1) n
    end
    else begin
      let t = to_rats tb i t in
      t.(j) <- v;
      axpy_rats t f (Rats s) tb.nz (q + 1) n
    end
  end

(* Row [i] <- row [i] - f * [src] over the [n] nonzero columns of [src] in
   [tb.nz]; the caller guarantees [src] is zero everywhere else, where the
   update would leave row [i] unchanged. *)
let axpy tb i f src n =
  match (tb.rows.(i), src) with
  | Ints t, Ints s when Rat.is_integer f -> axpy_ints t (Rat.num f) s tb.nz n
  | Ints t, Rats s when Rat.is_integer f -> axpy_into_ints tb i t f s 0 n
  | Ints t, _ -> axpy_rats (to_rats tb i t) f src tb.nz 0 n
  | Rats t, _ -> axpy_rats t f src tb.nz 0 n

(* Row [i] divided by [p] over [tb.nz.(q .. n-1)], through [Rat.div]:
   cells stay in place while the quotients are integers, and the row turns
   rational at its first fraction. *)
let rec divide_ints tb i a p q n =
  if q < n then begin
    let j = tb.nz.(q) in
    let v = Rat.div (Rat.of_int a.(j)) p in
    if Rat.is_integer v then begin
      a.(j) <- Rat.num v;
      divide_ints tb i a p (q + 1) n
    end
    else begin
      let a = to_rats tb i a in
      a.(j) <- v;
      for q = q + 1 to n - 1 do
        let j = tb.nz.(q) in
        a.(j) <- Rat.div a.(j) p
      done
    end
  end

(* The repair tableaux are mostly zeros (a difference constraint touches
   four of the 2n structural columns), so the pivot works on the pivot
   row's nonzero columns only: a zero cell divides to zero and eliminates
   to no change, so the result is the dense pivot's, cell for cell. A pivot
   element of 1 divides nothing, and one of -1 negates each cell through
   [Checked.mul], as [Rat.div] does. *)
let pivot tb r c =
  Obs.incr pivots_c;
  let row = tb.rows.(r) in
  if sign row tb.width = 0 then Obs.incr degenerate_c;
  assert (sign row c <> 0);
  let n = nonzeros tb row in
  (match row with
  | Ints a ->
      let p = a.(c) in
      if p = -1 then
        for q = 0 to n - 1 do
          let j = tb.nz.(q) in
          a.(j) <- Checked.mul a.(j) (-1)
        done
      else if p <> 1 then divide_ints tb r a (Rat.of_int p) 0 n
  | Rats a ->
      let p = a.(c) in
      for q = 0 to n - 1 do
        let j = tb.nz.(q) in
        a.(j) <- Rat.div a.(j) p
      done);
  let row = tb.rows.(r) in
  for i = 0 to tb.nrows do
    if i <> r then
      match (tb.rows.(i), row) with
      | Ints t, Ints s ->
          let f = t.(c) in
          if f <> 0 then axpy_ints t f s tb.nz n
      | target, _ -> if sign target c <> 0 then axpy tb i (cell target c) row n
  done;
  tb.basis.(r) <- c

(* Bland's rule, entering: the smallest column below [limit] with a
   negative reduced cost, or -1. *)
let entering tb limit =
  let j = ref 0 in
  (match tb.rows.(tb.nrows) with
  | Ints o -> while !j < limit && o.(!j) >= 0 do incr j done
  | Rats o -> while !j < limit && Rat.sign o.(!j) >= 0 do incr j done);
  if !j < limit then !j else -1

(* Bland's rule, leaving: among the rows with a positive entry in column
   [c], the least ratio rhs / entry, ties to the smallest basic column; -1
   when no row qualifies. The best ratio is held as an int while it is
   integral, so a unit entry of an integer row costs no allocation; every
   comparison involving a fraction goes through [Rat.compare]. *)
let leaving tb c =
  let w = tb.width in
  let best = ref (-1) and best_int = ref 0 and best_rat = ref Rat.zero in
  let best_frac = ref false in
  for i = 0 to tb.nrows - 1 do
    match tb.rows.(i) with
    | Ints a when a.(c) = 1 && not !best_frac ->
        let r = a.(w) in
        if !best < 0 || r < !best_int || (r = !best_int && tb.basis.(i) < tb.basis.(!best))
        then begin
          best := i;
          best_int := r
        end
    | row when sign row c > 0 ->
        let ratio = Rat.div (cell row w) (cell row c) in
        let k =
          if !best < 0 then -1
          else Rat.compare ratio (if !best_frac then !best_rat else Rat.of_int !best_int)
        in
        if k < 0 || (k = 0 && tb.basis.(i) < tb.basis.(!best)) then begin
          best := i;
          best_frac := not (Rat.is_integer ratio);
          if !best_frac then best_rat := ratio else best_int := Rat.num ratio
        end
    | _ -> ()
  done;
  !best

let rec optimize ~iters ~limit tb =
  Obs.incr iters;
  let c = entering tb limit in
  if c < 0 then `Optimal
  else
    let r = leaving tb c in
    if r < 0 then `Unbounded
    else begin
      pivot tb r c;
      optimize ~iters ~limit tb
    end

(* [a.(v) <- a.(v) + c] over integer terms [(c, v)], each negated when
   [neg], as [Rat.add] accumulates them. *)
let rec add_int_terms a neg = function
  | [] -> ()
  | (c, v) :: rest ->
      let c = Rat.num c in
      a.(v) <- Checked.add a.(v) (if neg then Checked.neg c else c);
      add_int_terms a neg rest

let rec integral = function [] -> true | (c, _) :: rest -> Rat.is_integer c && integral rest

(* A row over [width] columns holding [terms] (each negated when [neg]) and
   [rhs]: integers when they all are, rationals otherwise. *)
let row_of_terms width terms neg rhs =
  if Rat.is_integer rhs && integral terms then begin
    let a = Array.make (width + 1) 0 in
    add_int_terms a neg terms;
    a.(width) <- Rat.num rhs;
    Ints a
  end
  else begin
    let a = Array.make (width + 1) Rat.zero in
    List.iter (fun (c, v) -> a.(v) <- Rat.add a.(v) (if neg then Rat.neg c else c)) terms;
    a.(width) <- rhs;
    Rats a
  end

let set_cell row j v = match row with Ints a -> a.(j) <- v | Rats a -> a.(j) <- Rat.of_int v

(* Rows, slack/surplus columns and artificial columns of the constraints
   [cs]: one slack per inequality, and one artificial per row that is Ge or
   Eq once its rhs is normalised to be non-negative (which swaps Le and
   Ge). *)
let rec shape rows slack art = function
  | [] -> (rows, slack, art)
  | { sense; rhs; _ } :: cs ->
      let slack = match sense with Eq -> slack | Le | Ge -> slack + 1 in
      let art_row = match sense with Eq -> true | Ge -> Rat.sign rhs >= 0 | Le -> Rat.sign rhs < 0 in
      shape (rows + 1) slack (if art_row then art + 1 else art) cs

(* Row [i] and the rows above it from the constraints [cs], in reverse
   order, with the slack and artificial columns below [slack] and [art]. *)
let rec fill tb i slack art = function
  | [] -> ()
  | { terms; sense; rhs } :: cs ->
      let neg = Rat.sign rhs < 0 in
      let row = row_of_terms tb.width terms neg (if neg then Rat.neg rhs else rhs) in
      tb.rows.(i) <- row;
      let sense = if neg then match sense with Le -> Ge | Ge -> Le | Eq -> Eq else sense in
      let art =
        match sense with
        | Ge | Eq ->
            set_cell row (art - 1) 1;
            tb.basis.(i) <- art - 1;
            art - 1
        | Le -> art
      in
      let slack =
        match sense with
        | Le ->
            set_cell row (slack - 1) 1;
            tb.basis.(i) <- slack - 1;
            slack - 1
        | Ge ->
            set_cell row (slack - 1) (-1);
            slack - 1
        | Eq -> slack
      in
      fill tb (i - 1) slack art cs

(* The reduced-cost row for the costs [cost]: [cost] with each basic
   column priced out, by subtracting its row times its cost. *)
let price_out tb cost =
  let nrows = tb.nrows in
  tb.rows.(nrows) <- (match cost with Ints k -> Ints (Array.copy k) | Rats k -> Rats (Array.copy k));
  for i = 0 to nrows - 1 do
    let b = tb.basis.(i) in
    if b >= 0 && b < tb.width && sign cost b <> 0 then begin
      let row = tb.rows.(i) in
      let n = nonzeros tb row in
      match (tb.rows.(nrows), row, cost) with
      | Ints t, Ints s, Ints k -> axpy_ints t k.(b) s tb.nz n
      | _ -> axpy tb nrows (cell cost b) row n
    end
  done

let solve m =
  Obs.incr solves_c;
  let n = m.nvars in
  let nrows, num_slack, num_art = shape 0 0 0 m.constraints in
  let art_start = n + num_slack (* check: idx - tableau column counts *) in
  let width = n + num_slack + num_art (* check: idx - tableau column counts *) in
  let tb =
    {
      rows = Array.make (nrows + 1) (Ints [||]);
      nrows;
      basis = Array.make nrows (-1);
      width;
      nz = Array.make (width + 1) 0;
    }
  in
  (* [m.constraints] is in reverse order, so rows and their slack and
     artificial columns are assigned from the last one down. *)
  fill tb (nrows - 1) art_start width m.constraints;
  (* Phase 1: minimise the sum of artificials, costs 1 on the artificial
     columns. *)
  if num_art > 0 then begin
    if Obs.Trace.should_emit () then
      Obs.Trace.emit (Obs.Trace.Simplex_phase { phase = 1 });
    let cost = Array.make (width + 1) 0 in
    Array.fill cost art_start num_art 1;
    price_out tb (Ints cost);
    match optimize ~iters:phase1_c ~limit:width tb with
    | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
    | `Optimal ->
        if Rat.sign (Rat.neg (cell tb.rows.(nrows) width)) > 0 then raise Phase1_infeasible
        else
          (* Degenerate artificials may linger in the basis at value zero;
             pivot them out on any structural/slack column, or leave them
             (their row is then redundant and stays at zero). *)
          for i = 0 to nrows - 1 do
            if tb.basis.(i) >= art_start then begin
              let j = ref 0 in
              while !j < art_start && sign tb.rows.(i) !j = 0 do incr j done;
              if !j < art_start then pivot tb i !j
            end
          done
  end;
  (* Phase 2: real objective, artificial columns barred from entering. *)
  price_out tb (row_of_terms width m.objective false Rat.zero);
  if Obs.Trace.should_emit () then
    Obs.Trace.emit (Obs.Trace.Simplex_phase { phase = 2 });
  match optimize ~iters:phase2_c ~limit:art_start tb with
  | `Unbounded -> Unbounded
  | `Optimal ->
      let values = Array.make n Rat.zero in
      for i = 0 to nrows - 1 do
        let b = tb.basis.(i) in
        if b >= 0 && b < n then values.(b) <- cell tb.rows.(i) width
      done;
      let objective =
        List.fold_left
          (fun acc (c, v) -> Rat.add acc (Rat.mul c values.(v)))
          Rat.zero m.objective
      in
      Optimal { objective; values }

let solve_checked m =
  try solve m
  with Phase1_infeasible ->
    Obs.incr infeasible_c;
    Infeasible

let solve m =
  Obs.time solve_s (fun () ->
      let outcome = solve_checked m in
      if Obs.Trace.should_emit () then
        Obs.Trace.emit
          (Obs.Trace.Simplex_outcome
             {
               outcome =
                 (match outcome with
                 | Optimal _ -> "optimal"
                 | Infeasible -> "infeasible"
                 | Unbounded -> "unbounded");
             });
      outcome)

let pp_outcome ppf = function
  | Infeasible -> Format.fprintf ppf "infeasible"
  | Unbounded -> Format.fprintf ppf "unbounded"
  | Optimal { objective; values } ->
      Format.fprintf ppf "optimal %a at [%a]" Rat.pp objective
        (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Rat.pp)
        (Array.to_seq values)
