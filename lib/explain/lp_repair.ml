module Event = Events.Event
module Tuple = Events.Tuple
module Rat = Numeric.Rat
module Simplex = Lp.Simplex

type t = {
  repaired : Tuple.t;
  cost : int;
  integral_relaxation : bool;
}

(* Variables u_i, v_i >= 0 with t'(Ei) = t(Ei) - u_i + v_i (Formula 4),
   for the i-th event of the conditions in [Event.compare] order. They are
   added in that order, u_i before v_i, and handles are dense from 0. *)
let u i = 2 * i
let v i = (2 * i) + 1

let default_weight e = if Event.is_artificial e then 0 else 1

(* The index of [e] in the sorted [events.(lo .. hi)]. *)
let rec index events e lo hi =
  if lo > hi then raise Not_found
  else
    let mid = (lo + hi) / 2 in
    let c = Event.compare e events.(mid) in
    if c = 0 then mid
    else if c < 0 then index events e lo (mid - 1)
    else index events e (mid + 1) hi

let build ?(weights = default_weight) ?(bounds = fun _ -> None) ?cutoff tuple intervals =
  let events = Array.of_list (Event.Set.elements (Tcn.Condition.interval_events intervals)) in
  let n = Array.length events in
  let find e = index events e 0 (n - 1) in
  let ts = Array.map (Tuple.find tuple) events in
  let model = Simplex.create () in
  for _ = 1 to 2 * n do
    ignore (Simplex.add_var model)
  done;
  (* Only real events pay for moving (Formula 1 sums over E in the schema;
     artificial events are artifacts of the encoding), each at its weight. *)
  let objective = ref [] in
  for i = n - 1 downto 0 do
    let e = events.(i) in
    let w = if Event.is_artificial e then 0 else weights e in
    if w < 0 then invalid_arg "Lp_repair: negative weight";
    if w <> 0 then
      let w = Rat.of_int w in
      objective := (w, u i) :: (w, v i) :: !objective
  done;
  let objective = !objective in
  Simplex.set_objective model objective;
  (* Incumbent cutoff: only repairs strictly cheaper than [cutoff] are of
     interest, and costs are integral, so a budget constraint of
     [cutoff - 1] makes every dominated binding infeasible. *)
  (match cutoff with
  | Some c -> Simplex.add_constraint model objective Simplex.Le (Rat.of_int (c - 1))
  | None -> ());
  List.iter
    (fun { Tcn.Condition.src; dst; lo; hi } ->
      let s = find src and d = find dst in
      let base = ts.(d) - ts.(s) in
      (* t'(dst) - t'(src) = base - u_d + v_d + u_s - v_s, constrained to
         [lo, hi]. *)
      let terms =
        [ (Rat.minus_one, u d); (Rat.one, v d); (Rat.one, u s); (Rat.minus_one, v s) ]
      in
      Simplex.add_constraint model terms Simplex.Ge (Rat.of_int (lo - base));
      match hi with
      | Some hi -> Simplex.add_constraint model terms Simplex.Le (Rat.of_int (hi - base))
      | None -> ())
    intervals;
  (* Timestamps stay in the domain T (non-negative): t(Ei) - u_i + v_i >= 0;
     and each event respects its plausibility bound |t - t'| <= r when one
     is given (u_i + v_i >= |t - t'| always, and the optimum never pads, so
     bounding the sum bounds the move without cutting feasible targets). *)
  Array.iteri
    (fun i e ->
      Simplex.add_constraint model
        [ (Rat.minus_one, u i); (Rat.one, v i) ]
        Simplex.Ge
        (Rat.of_int (-ts.(i)));
      if not (Event.is_artificial e) then
        match bounds e with
        | Some r ->
            if r < 0 then invalid_arg "Lp_repair: negative bound";
            Simplex.add_constraint model [ (Rat.one, u i); (Rat.one, v i) ] Simplex.Le (Rat.of_int r)
        | None -> ())
    events;
  (model, events)

let repaired_tuple tuple events read =
  let repaired = ref Tuple.empty in
  Array.iteri
    (fun i e -> repaired := Tuple.add e (Tuple.find tuple e - read (u i) + read (v i)) !repaired)
    events;
  !repaired

let cost_of ?(weights = default_weight) tuple repaired =
  Tuple.fold
    (fun e ts acc ->
      if Event.is_artificial e then acc
      else
        match Tuple.find_opt tuple e with
        | Some orig -> acc + (weights e * abs (orig - ts))
        | None -> acc)
    repaired 0

let repair ?weights ?bounds ?cutoff tuple intervals =
  if (match cutoff with Some c -> c <= 0 | None -> false) then None
  else
  let model, events = build ?weights ?bounds ?cutoff tuple intervals in
  match Simplex.solve model with
  | Simplex.Infeasible -> None
  | Simplex.Unbounded ->
      (* The objective is a sum of non-negative variables: impossible. *)
      assert false
  | Simplex.Optimal { values; _ } ->
      let integral = Array.for_all Rat.is_integer values in
      if integral then
        let repaired = repaired_tuple tuple events (fun i -> Rat.to_int_exn values.(i)) in
        Some { repaired; cost = cost_of ?weights tuple repaired; integral_relaxation = true }
      else begin
        (* Never observed (difference systems are totally unimodular), but
           kept so the exactness claim does not rest on that observation. *)
        match Lp.Ilp.solve model with
        | Lp.Ilp.Optimal { values; _ } ->
            let repaired = repaired_tuple tuple events (fun i -> values.(i)) in
            Some { repaired; cost = cost_of ?weights tuple repaired; integral_relaxation = false }
        | Lp.Ilp.Infeasible | Lp.Ilp.Unbounded -> assert false
      end
