module Event = Events.Event
module Tuple = Events.Tuple
module Mcf = Lp.Mcf

let src = Logs.Src.create "whynot.flow_repair" ~doc:"min-cost-flow timestamp repair"

module Log = (val Logs.src_log src : Logs.LOG)

exception Inconsistent_potentials

(* Every difference constraint x_j - x_i <= u becomes an arc i->j with cost
   u - c_j + c_i (its slack at the input tuple c); node i may absorb dual
   imbalance up to its L1 weight via a super node s. The optimal circulation
   cost is the negated repair cost, and the optimal primal is c + potential,
   with potentials the shortest distances over the optimal residual graph. *)
let repair_exn ?weights ?(bounds = fun _ -> None) tuple intervals =
  let events = Event.Set.elements (Tcn.Condition.interval_events intervals) in
  let n = List.length events in
  let index =
    List.to_seq events
    |> Seq.mapi (fun i e -> (e, i))
    |> Seq.fold_left (fun acc (e, i) -> Event.Map.add e i acc) Event.Map.empty
  in
  let ts = Array.of_list (List.map (Tuple.find tuple) events) in
  let weight_of =
    match weights with
    | Some f -> fun e -> if Event.is_artificial e then 0 else f e
    | None -> fun e -> if Event.is_artificial e then 0 else 1
  in
  let weight =
    Array.of_list
      (List.map
         (fun e ->
           let w = weight_of e in
           if w < 0 then invalid_arg "Flow_repair: negative weight";
           w)
         events)
  in
  let origin = n and super = n + 1 in
  let total_weight = Array.fold_left ( + ) 0 weight in
  let origin_weight = total_weight + 1 in
  let arc_cap = (2 * (total_weight + origin_weight)) + 4 in
  let g = Mcf.create (n + 2) in
  let time_of node = if node = origin then 0 else ts.(node) in
  (* x_dst - x_src <= bound *)
  let add_difference ~src:i ~dst:j bound =
    ignore
      (Mcf.add_edge g ~src:i ~dst:j ~cap:arc_cap
         ~cost:(bound - time_of j + time_of i))
  in
  List.iter
    (fun { Tcn.Condition.src = s; dst = d; lo; hi } ->
      let i = Event.Map.find s index and j = Event.Map.find d index in
      (match hi with Some hi -> add_difference ~src:i ~dst:j hi | None -> ());
      add_difference ~src:j ~dst:i (-lo))
    intervals;
  (* Non-negativity: x_origin - x_i <= 0 with x_origin pinned to 0 by a
     dominating weight (deviating the origin always costs more than it can
     save elsewhere). Plausibility bounds are two more origin-anchored
     difference constraints: |x_i - c_i| <= r. *)
  for i = 0 to n - 1 do
    add_difference ~src:i ~dst:origin 0
  done;
  List.iteri
    (fun i e ->
      if not (Event.is_artificial e) then
        match bounds e with
        | Some r ->
            if r < 0 then invalid_arg "Flow_repair: negative bound";
            (* x_i - x_o <= c_i + r  and  x_o - x_i <= r - c_i *)
            add_difference ~src:origin ~dst:i (ts.(i) + r);
            add_difference ~src:i ~dst:origin (r - ts.(i))
        | None -> ())
    events;
  let add_super i w =
    if w > 0 then begin
      ignore (Mcf.add_edge g ~src:i ~dst:super ~cap:w ~cost:0);
      ignore (Mcf.add_edge g ~src:super ~dst:i ~cap:w ~cost:0)
    end
  in
  Array.iteri (fun i w -> add_super i w) weight;
  add_super origin origin_weight;
  let neg_cost = Mcf.min_cost_circulation g in
  (* Potentials: shortest residual distances from the super node, completed
     on unreachable nodes by lower-bound (longest-path) propagation. *)
  let dist = Mcf.residual_distances g ~source:super in
  let pi = Array.make (n + 2) None in
  Array.iteri (fun i d -> pi.(i) <- d) dist;
  let relax_pass () =
    let changed = ref false in
    Mcf.iter_residual g (fun ~src:u ~dst:v ~cost ->
        (* constraint: pi(v) <= pi(u) + cost, i.e. pi(u) >= pi(v) - cost *)
        match pi.(v) with
        | None -> ()
        | Some pv ->
            let lb = pv - cost in
            let raise_needed =
              match pi.(u) with None -> true | Some pu -> pu < lb
            in
            if raise_needed then begin
              (match pi.(u) with
              | Some _ when dist.(u) <> None ->
                  (* a settled shortest distance can never need raising *)
                  raise Inconsistent_potentials
              | _ -> ());
              pi.(u) <- Some lb;
              changed := true
            end);
    !changed
  in
  let passes = ref 0 in
  while relax_pass () do
    incr passes;
    if !passes > n + 3 then raise Inconsistent_potentials
  done;
  let pi = Array.map (Option.value ~default:0) pi in
  (* Verify every residual inequality (complementary slackness in full). *)
  Mcf.iter_residual g (fun ~src:u ~dst:v ~cost ->
      if pi.(v) > pi.(u) + cost then raise Inconsistent_potentials);
  if pi.(origin) <> pi.(super) then raise Inconsistent_potentials;
  let shift = pi.(super) in
  let repaired =
    List.fold_left
      (fun acc e ->
        let i = Event.Map.find e index in
        Tuple.add e (ts.(i) + pi.(i) - shift) acc)
      Tuple.empty events
  in
  let cost =
    List.fold_left
      (fun acc e ->
        acc + (weight_of e * abs (Tuple.find repaired e - Tuple.find tuple e)))
      0 events
  in
  if cost <> -neg_cost then raise Inconsistent_potentials;
  { Lp_repair.repaired; cost; integral_relaxation = true }

let repair ?weights ?bounds tuple intervals =
  let absolute =
    match bounds with
    | None -> []
    | Some bounds ->
        Event.Set.fold
          (fun e acc ->
            if Event.is_artificial e then acc
            else
              match bounds e with
              | Some r ->
                  let c = Tuple.find tuple e in
                  (e, max 0 (c - r), c + r) :: acc
              | None -> acc)
          (Tcn.Condition.interval_events intervals)
          []
  in
  let stn = Tcn.Stn.of_intervals ~absolute intervals in
  if not (Tcn.Stn.consistent stn) then None
  else
    match repair_exn ?weights ?bounds tuple intervals with
    | result -> Some result
    | exception Inconsistent_potentials ->
        (* Defensive: fall back to the simplex route rather than return a
           wrong optimum. Exercised never in tests; kept for safety. *)
        Log.warn (fun m -> m "potential recovery failed; falling back to simplex");
        Lp_repair.repair ?weights ?bounds tuple intervals
