module Rat = Numeric.Rat

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

(* The tableau holds one row per constraint plus a separate reduced-cost row.
   Column layout: structural variables, then slacks/surpluses, then
   artificials, then the right-hand side as the last column. *)

type tableau = {
  rows : Rat.t array array;
  obj : Rat.t array; (* reduced costs; last cell = -(objective value) *)
  basis : int array; (* basis.(i) = column basic in row i *)
  width : int; (* number of variable columns (rhs excluded) *)
  nz : int array; (* reused buffer: the pivot row's nonzero columns *)
}

(* [target <- target - f * src] over the columns [cols.(0 .. n-1)]; the
   caller guarantees [src] is zero everywhere else, where the update would
   leave [target] unchanged. *)
let axpy target f src cols n =
  for q = 0 to n - 1 do
    let j = cols.(q) in
    target.(j) <- Rat.sub target.(j) (Rat.mul f src.(j))
  done

(* The nonzero columns of [row], into [tb.nz]; returns their count. *)
let nonzeros tb row =
  let n = ref 0 in
  for j = 0 to tb.width do
    if Rat.sign row.(j) <> 0 then begin
      tb.nz.(!n) <- j;
      incr n
    end
  done;
  !n

(* The repair tableaux are mostly zeros (a difference constraint touches
   four of the 2n structural columns), so the pivot works on the pivot
   row's nonzero columns only: a zero cell divides to zero and eliminates
   to no change, so the result is the dense pivot's, cell for cell. *)
let pivot tb r c =
  Obs.incr pivots_c;
  let row = tb.rows.(r) in
  if Rat.sign row.(tb.width) = 0 then Obs.incr degenerate_c;
  let piv = row.(c) in
  assert (Rat.sign piv <> 0);
  let n = nonzeros tb row in
  for q = 0 to n - 1 do
    let j = tb.nz.(q) in
    row.(j) <- Rat.div row.(j) piv
  done;
  let eliminate target =
    let f = target.(c) in
    if Rat.sign f <> 0 then axpy target f row tb.nz n
  in
  Array.iteri (fun i target -> if i <> r then eliminate target) tb.rows;
  eliminate tb.obj;
  tb.basis.(r) <- c

(* Bland's rule: entering = smallest eligible column index; leaving = among
   minimum-ratio rows, the one whose basic variable has the smallest index.
   This precludes cycling under degeneracy. *)
let rec optimize ~iters ~allowed tb =
  Obs.incr iters;
  let entering = ref (-1) in
  (try
     for j = 0 to tb.width - 1 do
       if allowed j && Rat.sign tb.obj.(j) < 0 then begin
         entering := j;
         raise Exit
       end
     done
   with Exit -> ());
  if !entering < 0 then `Optimal
  else begin
    let c = !entering in
    let best_row = ref (-1) and best_ratio = ref Rat.zero in
    Array.iteri
      (fun i row ->
        if Rat.sign row.(c) > 0 then begin
          let ratio = Rat.div row.(tb.width) row.(c) in
          if
            !best_row < 0
            || Rat.compare ratio !best_ratio < 0
            || (Rat.equal ratio !best_ratio && tb.basis.(i) < tb.basis.(!best_row))
          then begin
            best_row := i;
            best_ratio := ratio
          end
        end)
      tb.rows;
    if !best_row < 0 then `Unbounded
    else begin
      pivot tb !best_row c;
      optimize ~iters ~allowed tb
    end
  end

let solve m =
  Obs.incr solves_c;
  let constraints = Array.of_list (List.rev m.constraints) in
  let nrows = Array.length constraints in
  let n = m.nvars in
  (* One slack/surplus column per inequality, one artificial per Ge/Eq row
     (after normalising the rhs to be non-negative). *)
  let normalized =
    Array.map
      (fun { terms; sense; rhs } ->
        if Rat.sign rhs >= 0 then (terms, sense, rhs)
        else
          let terms = List.map (fun (c, v) -> (Rat.neg c, v)) terms in
          let sense = match sense with Le -> Ge | Ge -> Le | Eq -> Eq in
          (terms, sense, Rat.neg rhs))
      constraints
  in
  let num_slack =
    Array.fold_left
      (fun acc (_, sense, _) -> match sense with Le | Ge -> acc + 1 | Eq -> acc)
      0 normalized
  in
  let num_art =
    Array.fold_left
      (fun acc (_, sense, _) -> match sense with Ge | Eq -> acc + 1 | Le -> acc)
      0 normalized
  in
  let art_start = n + num_slack (* check: idx - tableau column counts *) in
  let width = n + num_slack + num_art (* check: idx - tableau column counts *) in
  let rows = Array.init nrows (fun _ -> Array.make (width + 1) Rat.zero) in
  let basis = Array.make nrows (-1) in
  let next_slack = ref n and next_art = ref art_start in
  Array.iteri
    (fun i (terms, sense, rhs) ->
      let row = rows.(i) in
      List.iter (fun (c, v) -> row.(v) <- Rat.add row.(v) c) terms;
      row.(width) <- rhs;
      (match sense with
      | Le ->
          row.(!next_slack) <- Rat.one;
          basis.(i) <- !next_slack;
          incr next_slack
      | Ge ->
          row.(!next_slack) <- Rat.minus_one;
          incr next_slack
      | Eq -> ());
      match sense with
      | Ge | Eq ->
          row.(!next_art) <- Rat.one;
          basis.(i) <- !next_art;
          incr next_art
      | Le -> ())
    normalized;
  let tb =
    { rows; obj = Array.make (width + 1) Rat.zero; basis; width; nz = Array.make (width + 1) 0 }
  in
  (* Phase 1: minimise the sum of artificials. Reduced costs start as the
     raw costs (1 on artificial columns), then basic columns are priced out
     by subtracting their rows. *)
  if num_art > 0 then begin
    if Obs.Trace.should_emit () then
      Obs.Trace.emit (Obs.Trace.Simplex_phase { phase = 1 });
    for j = art_start to width - 1 do
      tb.obj.(j) <- Rat.one
    done;
    Array.iteri
      (fun i b ->
        if b >= art_start then
          let row = tb.rows.(i) in
          axpy tb.obj Rat.one row tb.nz (nonzeros tb row))
      tb.basis;
    match optimize ~iters:phase1_c ~allowed:(fun _ -> true) tb with
    | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
    | `Optimal ->
        if Rat.sign (Rat.neg tb.obj.(width)) > 0 then raise Phase1_infeasible
        else
          (* Degenerate artificials may linger in the basis at value zero;
             pivot them out on any structural/slack column, or leave them
             (their row is then redundant and stays at zero). *)
          Array.iteri
            (fun i b ->
              if b >= art_start then begin
                let col = ref (-1) in
                (try
                   for j = 0 to art_start - 1 do
                     if Rat.sign tb.rows.(i).(j) <> 0 then begin
                       col := j;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                if !col >= 0 then pivot tb i !col
              end)
            tb.basis
  end;
  (* Phase 2: real objective, artificial columns barred from entering. *)
  let cost = Array.make width Rat.zero in
  List.iter (fun (c, v) -> cost.(v) <- Rat.add cost.(v) c) m.objective;
  Array.fill tb.obj 0 (width + 1) Rat.zero;
  Array.blit cost 0 tb.obj 0 width;
  Array.iteri
    (fun i b ->
      if b >= 0 && b < width && Rat.sign cost.(b) <> 0 then
        let row = tb.rows.(i) in
        axpy tb.obj cost.(b) row tb.nz (nonzeros tb row))
    tb.basis;
  if Obs.Trace.should_emit () then
    Obs.Trace.emit (Obs.Trace.Simplex_phase { phase = 2 });
  match optimize ~iters:phase2_c ~allowed:(fun j -> j < art_start) tb with
  | `Unbounded -> Unbounded
  | `Optimal ->
      let values = Array.make n Rat.zero in
      Array.iteri
        (fun i b -> if b >= 0 && b < n then values.(b) <- tb.rows.(i).(width))
        tb.basis;
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
