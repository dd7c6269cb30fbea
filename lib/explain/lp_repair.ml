module Event = Events.Event
module Tuple = Events.Tuple
module Rat = Numeric.Rat
module Simplex = Lp.Simplex

type t = {
  repaired : Tuple.t;
  cost : int;
  integral_relaxation : bool;
}

(* Variables u_i, v_i >= 0 with t'(Ei) = t(Ei) - u_i + v_i (Formula 4). *)
type vars = { u : int; v : int }

let default_weight e = if Event.is_artificial e then 0 else 1

let build ?(weights = default_weight) ?(bounds = fun _ -> None) ?cutoff tuple intervals =
  let events = Event.Set.elements (Tcn.Condition.interval_events intervals) in
  let model = Simplex.create () in
  let vars =
    List.fold_left
      (fun acc e ->
        let u = Simplex.add_var model in
        let v = Simplex.add_var model in
        Event.Map.add e { u; v } acc)
      Event.Map.empty events
  in
  (* Only real events pay for moving (Formula 1 sums over E in the schema;
     artificial events are artifacts of the encoding), each at its weight. *)
  let objective =
    List.concat_map
      (fun e ->
        let w = if Event.is_artificial e then 0 else weights e in
        if w < 0 then invalid_arg "Lp_repair: negative weight";
        if w = 0 then []
        else
          let { u; v } = Event.Map.find e vars in
          [ (Rat.of_int w, u); (Rat.of_int w, v) ])
      events
  in
  Simplex.set_objective model objective;
  (* Incumbent cutoff (branch-and-bound): only repairs strictly cheaper
     than [cutoff] are of interest, and costs are integral, so a budget
     constraint of [cutoff - 1] makes every dominated binding infeasible
     instead of paying for its exact optimum. *)
  (match cutoff with
  | Some c -> Simplex.add_constraint model objective Simplex.Le (Rat.of_int (c - 1))
  | None -> ());
  List.iter
    (fun { Tcn.Condition.src; dst; lo; hi } ->
      let vs = Event.Map.find src vars and vd = Event.Map.find dst vars in
      let base = Tuple.find tuple dst - Tuple.find tuple src in
      (* t'(dst) - t'(src) = base - u_d + v_d + u_s - v_s, constrained to
         [lo, hi]. *)
      let terms =
        [
          (Rat.minus_one, vd.u);
          (Rat.one, vd.v);
          (Rat.one, vs.u);
          (Rat.minus_one, vs.v);
        ]
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
  List.iter
    (fun e ->
      let { u; v } = Event.Map.find e vars in
      Simplex.add_constraint model
        [ (Rat.minus_one, u); (Rat.one, v) ]
        Simplex.Ge
        (Rat.of_int (-Tuple.find tuple e));
      if not (Event.is_artificial e) then
        match bounds e with
        | Some r ->
            if r < 0 then invalid_arg "Lp_repair: negative bound";
            Simplex.add_constraint model
              [ (Rat.one, u); (Rat.one, v) ]
              Simplex.Le (Rat.of_int r)
        | None -> ())
    events;
  (model, vars, events)

let repaired_tuple tuple vars read =
  Event.Map.fold
    (fun e { u; v } acc ->
      let t' = Tuple.find tuple e - read u + read v in
      Tuple.add e t' acc)
    vars Tuple.empty

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
  let model, vars, _events = build ?weights ?bounds ?cutoff tuple intervals in
  match Simplex.solve model with
  | Simplex.Infeasible -> None
  | Simplex.Unbounded ->
      (* The objective is a sum of non-negative variables: impossible. *)
      assert false
  | Simplex.Optimal { values; _ } ->
      let integral = Array.for_all Rat.is_integer values in
      if integral then
        let repaired = repaired_tuple tuple vars (fun i -> Rat.to_int_exn values.(i)) in
        Some { repaired; cost = cost_of ?weights tuple repaired; integral_relaxation = true }
      else begin
        (* Never observed (difference systems are totally unimodular), but
           kept so the exactness claim does not rest on that observation. *)
        match Lp.Ilp.solve model with
        | Lp.Ilp.Optimal { values; _ } ->
            let repaired = repaired_tuple tuple vars (fun i -> values.(i)) in
            Some { repaired; cost = cost_of ?weights tuple repaired; integral_relaxation = false }
        | Lp.Ilp.Infeasible | Lp.Ilp.Unbounded -> assert false
      end
