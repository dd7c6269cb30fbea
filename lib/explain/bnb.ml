module Event = Events.Event
module Tuple = Events.Tuple
module Checked = Numeric.Checked

type stats = {
  nodes_expanded : int;
  leaves_solved : int;
  pruned_bound : int;
  pruned_inconsistent : int;
  pruned_plausibility : int;
}

type outcome = { best : (Tuple.t * int) option; stats : stats }

let searches_c = Obs.counter "bnb.searches"
let nodes_c = Obs.counter "bnb.nodes_expanded"
let leaves_c = Obs.counter "bnb.leaves_solved"
let pruned_bound_c = Obs.counter "bnb.pruned_bound"
let pruned_inconsistent_c = Obs.counter "bnb.pruned_inconsistent"
let pruned_plausibility_c = Obs.counter "bnb.pruned_plausibility"
let zero_stops_c = Obs.counter "bnb.zero_stops"
let search_s = Obs.span "bnb.search"
let gap_h = Obs.histogram "bnb.lb_gap"

(* An incumbent leaf: its earliest optimal repair by closure index, read
   while its closure was live ([-1] off the leaf), or the repair its LP
   solve found. *)
type incumbent = Read of int array | Solved of Tuple.t

(* The mutable state of the one search: the closure engine, the grounded
   counts, the violations, the incumbent and the statistics. *)
type search = {
  inc : Tcn.Stn_inc.t;
  grounded : int array; (* per universe index: pushes grounding the event *)
  keep : int -> bool;
      (* per universe index: grounded, i.e. mentioned by Φ or by a choice
         on the path *)
  leaf : Leaf.t; (* the violations the last bound read, over [inc] *)
  path : Tcn.Condition.interval array; (* binding choice per level *)
  mutable leaf_lb : int; (* lower bound at the deepest pushed node *)
  mutable best_cost : int; (* the incumbent's; [max_int] before one *)
  mutable best : incumbent option;
  mutable zero_at : int;
      (* the top-level subtree that reached cost 0; [max_int] before *)
  mutable nodes : int;
  mutable leaves : int;
  mutable pr_bound : int;
  mutable pr_inc : int;
  mutable pr_plaus : int;
}

(* The tuple-independent part of a search. [base] is Φ closed once: [None]
   when Φ alone is inconsistent. It is forced by the first search, inside
   that search's [bnb.search] span and in the calling domain, so a fresh
   [prepare] pushes, counts and traces exactly like the uncached search;
   afterwards every search copies it and nothing mutates it. *)
type prepared = {
  intervals : Tcn.Condition.interval list;
  choices : Tcn.Condition.interval list array; (* per binding level *)
  ev : Event.t array; (* the event universe, in index order *)
  index : int Event.Map.t;
  base_grounded : bool array; (* per universe index: mentioned by Φ *)
  base : Tcn.Stn_inc.t option Lazy.t;
}

let prepare (net : Tcn.Encode.set) =
  let choices =
    Array.of_list (List.map Tcn.Bindings.choices net.set_bindings)
  in
  let universe =
    Event.Set.union
      (Tcn.Condition.interval_events net.set_intervals)
      (Tcn.Condition.binding_events net.set_bindings)
  in
  let ev = Array.of_list (Event.Set.elements universe) in
  let index =
    Array.to_seqi ev
    |> Seq.fold_left (fun acc (i, e) -> Event.Map.add e i acc) Event.Map.empty
  in
  (* Only events whose closure window has been constrained on the current
     path are guaranteed to appear in every leaf repair below the node, so
     only those may contribute to an admissible bound. *)
  let base_grounded = Array.make (Array.length ev) false in
  List.iter
    (fun { Tcn.Condition.src; dst; _ } ->
      base_grounded.(Event.Map.find src index) <- true;
      base_grounded.(Event.Map.find dst index) <- true)
    net.set_intervals;
  let base =
    lazy
      (let inc = Tcn.Stn_inc.create (Array.to_list ev) in
       (* the bound reads the closure by index, so the two orders agree *)
       assert (Array.for_all2 Event.equal (Tcn.Stn_inc.events inc) ev);
       if List.for_all (fun phi -> Tcn.Stn_inc.push inc phi) net.set_intervals
       then Some inc
       else None)
  in
  { intervals = net.set_intervals; choices; ev; index; base_grounded; base }

let close p = ignore (Lazy.force p.base)

let run
    ~(repair :
        Tuple.t -> Tcn.Condition.interval list -> Lp_repair.t option)
    ?weights ?bounds p tuple =
  let { intervals; choices; ev; index; base_grounded; base } = p in
  let ngammas = Array.length choices in
  let n = Array.length ev in
  let idx e = Event.Map.find e index in
  let ts = Leaf.observed ev tuple in
  let weight_of e =
    if Event.is_artificial e then 0
    else match weights with None -> 1 | Some f -> f e
  in
  let w_arr = Array.map weight_of ev in
  Array.iter (fun w -> if w < 0 then invalid_arg "Bnb: negative weight") w_arr;
  let bnd_arr =
    Array.map
      (fun e ->
        if Event.is_artificial e then None
        else
          match bounds with
          | None -> None
          | Some f -> (
              match f e with
              | Some r when r < 0 -> invalid_arg "Bnb: negative bound"
              | b -> b))
      ev
  in
  let relevant =
    List.filter
      (fun i -> w_arr.(i) > 0 || bnd_arr.(i) <> None)
      (List.init n Fun.id)
  in
  let priced = Array.of_list (List.filter (fun i -> w_arr.(i) > 0) relevant) in
  (* Leaves are priced exactly from their closure, and the incumbent's
     repair is read off it, when every priced event weighs 1 and none has a
     plausibility bound; otherwise each leaf solves its repair LP. *)
  let exact_prices =
    Array.for_all (fun w -> w <= 1) w_arr && Array.for_all Option.is_none bnd_arr
  in
  (* Two admissible L1 lower bounds on every leaf below the node, over the
     grounded events only (those constrained on the current path, hence
     present in every leaf repair below it). The closure only tightens
     deeper in the tree and every leaf is feasible for every prefix
     closure, so both hold for the whole subtree. Both read the violations
     of the grounded priced events, loaded once per node into [s.leaf];
     a leaf's price reads the same ones.

     The window sum: each event must move at least its distance to its
     closure window. It rarely moves, since ATLEAST and WITHIN windows are
     relative and only a chain from time 0 bounds an event absolutely.

     The pair matching: a pair (i, j) costs at least
     min(w_i, w_j) * viol i j, and pairs that share no event add up; a
     pair with the origin is a window term, and the origin pairs with any
     number of events. Pairs are taken greedily, heaviest first.

     The bound is the larger of the two; [None] = some event's forced move
     to its window exceeds its plausibility bound, so no leaf below is
     feasible. Both sums are checked: a wrapped bound would prune the
     winner. *)
  let matching s =
    let leaf = s.leaf in
    let k = Leaf.size leaf in
    let pairs = ref [] in
    for a = 0 to k - 1 do
      let i = Leaf.event leaf a in
      for b = a + 1 to k - 1 do
        let v = Leaf.violation leaf a b in
        if v > 0 then begin
          let j = Leaf.event leaf b in
          pairs := (Checked.mul (Int.min w_arr.(i) w_arr.(j)) v, i, j) :: !pairs
        end
      done
    done;
    match !pairs with
    | [] -> 0 (* only origin pairs: the window sum *)
    | pairs ->
        let rec windows acc a =
          if a = k then acc
          else
            let v = Leaf.violation leaf a a in
            let i = Leaf.event leaf a in
            windows
              (if v > 0 then (Checked.mul w_arr.(i) v, n, i) :: acc else acc)
              (a + 1)
        in
        let heaviest_first (v1, i1, j1) (v2, i2, j2) =
          if v1 <> v2 then Int.compare v2 v1
          else if i1 <> i2 then Int.compare i1 i2
          else Int.compare j1 j2
        in
        let used = Array.make (n + 1) false in
        List.fold_left
          (fun total (v, i, j) ->
            if (i = n || not used.(i)) && not used.(j) then begin
              used.(i) <- true;
              used.(j) <- true;
              Checked.add total v
            end
            else total)
          0
          (List.sort heaviest_first (windows pairs 0))
  in
  let lower_bound s =
    Leaf.load s.leaf s.keep;
    (* [a] walks the loaded events, which are the grounded priced ones in
       the same order *)
    let rec windows acc a = function
      | [] -> Some acc
      | i :: rest ->
          if not (s.keep i) then windows acc a rest
          else
            let move, a =
              if w_arr.(i) > 0 then (Leaf.violation s.leaf a a, a + 1)
              else (Leaf.viol (Tcn.Stn_inc.distance s.inc) ts n i, a)
            in
            (match bnd_arr.(i) with
            | Some r when move > r -> None
            | _ -> windows (Checked.add acc (Checked.mul w_arr.(i) move)) a rest)
    in
    match windows 0 0 relevant with
    | None -> None
    | Some sum -> Some (Int.max sum (matching s))
  in
  let ground s { Tcn.Condition.src; dst; _ } delta =
    let i = idx src and j = idx dst in
    s.grounded.(i) <- s.grounded.(i) + delta;
    s.grounded.(j) <- s.grounded.(j) + delta
  in
  (* Each leaf costs what the plain repair LP of the flat sweep costs: its
     exact price from the closure where that applies (from the violations
     its bound just loaded), else the LP's optimum. The leaf becomes the
     incumbent only if it is strictly cheaper, so the winner is the flat
     sweep's first optimal binding; a priced one's earliest optimal repair
     is read now, while its closure is live. *)
  let reach_leaf s top_idx =
    s.leaves <- s.leaves + 1;
    let exact = if exact_prices then Leaf.price s.leaf else None in
    let leaf =
      match exact with
      | Some cost when cost < s.best_cost ->
          let free i = w_arr.(i) = 0 && s.keep i in
          Some (cost, Read (Leaf.read s.leaf ~free))
      | Some _ -> None
      | None -> (
          match repair tuple (Array.to_list s.path @ intervals) with
          | Some { Lp_repair.repaired; cost; _ } when cost < s.best_cost ->
              Some (cost, Solved repaired)
          | Some _ | None -> None)
    in
    match leaf with
    | Some (cost, incumbent) ->
        s.best_cost <- cost;
        s.best <- Some incumbent;
        Obs.observe gap_h (cost - s.leaf_lb);
        if Obs.Trace.should_emit () then
          Obs.Trace.emit (Obs.Trace.Bnb_incumbent { cost });
        if cost = 0 then begin
          Obs.incr zero_stops_c;
          if Obs.Trace.should_emit () then
            Obs.Trace.emit (Obs.Trace.Bnb_zero_stop { top = top_idx });
          s.zero_at <- top_idx
        end
    | None -> ()
  in
  let winner s =
    match s.best with
    | None -> None
    | Some (Solved repaired) -> Some (repaired, s.best_cost)
    | Some (Read x) -> Some (Leaf.repaired ev x, s.best_cost)
  in
  (* Once a leaf of top-level subtree [zero_at] reaches cost 0, no later
     top-level subtree can win: they are skipped unpushed. The remaining
     children inside subtree [zero_at] are still pushed, and the bound
     (>= 0 = the incumbent) prunes each of them. *)
  let rec descend s level top_idx =
    if level = ngammas then reach_leaf s top_idx
    else List.iter (fun phi -> try_child s level top_idx phi) choices.(level)
  and try_child s level top_idx phi =
    if s.zero_at >= top_idx then begin
      if Tcn.Stn_inc.push s.inc phi then begin
        ground s phi 1;
        (match lower_bound s with
        | None ->
            s.pr_plaus <- s.pr_plaus + 1;
            if Obs.Trace.should_emit () then
              Obs.Trace.emit
                (Obs.Trace.Bnb_prune { reason = Plausibility; gap = 0 })
        | Some lb ->
            if lb >= s.best_cost then begin
              s.pr_bound <- s.pr_bound + 1;
              if Obs.Trace.should_emit () then
                Obs.Trace.emit
                  (Obs.Trace.Bnb_prune
                     { reason = Bound; gap = lb - s.best_cost })
            end
            else begin
              (* Only a node we branch upon counts as expanded; a push
                 discarded by its bound is a prune, not an expansion. *)
              s.nodes <- s.nodes + 1;
              if Obs.Trace.should_emit () then
                Obs.Trace.emit (Obs.Trace.Bnb_node { level });
              s.path.(level) <- phi;
              s.leaf_lb <- lb;
              descend s (level + 1) top_idx
            end);
        ground s phi (-1)
      end
      else begin
        s.pr_inc <- s.pr_inc + 1;
        if Obs.Trace.should_emit () then
          Obs.Trace.emit
            (Obs.Trace.Bnb_prune { reason = Inconsistent; gap = 0 })
      end;
      Tcn.Stn_inc.pop s.inc
    end
  in
  let best, stats =
    match Lazy.force base with
    | None ->
        (* Φ alone is inconsistent: no binding can repair it *)
        ( None,
          {
            nodes_expanded = 0;
            leaves_solved = 0;
            pruned_bound = 0;
            pruned_inconsistent = 0;
            pruned_plausibility = 0;
          } )
    | Some base ->
        let inc = Tcn.Stn_inc.copy base in
        let counts = Array.make n 0 in
        let s =
          {
            inc;
            grounded = counts;
            keep = (fun i -> base_grounded.(i) || counts.(i) > 0);
            leaf = Leaf.create (Tcn.Stn_inc.distance inc) ts priced;
            path =
              Array.make ngammas
                Tcn.Condition.{ src = ""; dst = ""; lo = 0; hi = None };
            leaf_lb = 0;
            best_cost = max_int;
            best = None;
            zero_at = max_int;
            nodes = 0;
            leaves = 0;
            pr_bound = 0;
            pr_inc = 0;
            pr_plaus = 0;
          }
        in
        (if ngammas = 0 then
           match lower_bound s with
           | None -> s.pr_plaus <- s.pr_plaus + 1
           | Some lb ->
               s.leaf_lb <- lb;
               reach_leaf s 0
         else List.iteri (fun top phi -> try_child s 0 top phi) choices.(0));
        ( winner s,
          {
            nodes_expanded = s.nodes;
            leaves_solved = s.leaves;
            pruned_bound = s.pr_bound;
            pruned_inconsistent = s.pr_inc;
            pruned_plausibility = s.pr_plaus;
          } )
  in
  Obs.add nodes_c stats.nodes_expanded;
  Obs.add leaves_c stats.leaves_solved;
  Obs.add pruned_bound_c stats.pruned_bound;
  Obs.add pruned_inconsistent_c stats.pruned_inconsistent;
  Obs.add pruned_plausibility_c stats.pruned_plausibility;
  { best; stats }

let search_prepared ~repair ?weights ?bounds p tuple =
  Obs.incr searches_c;
  Obs.time search_s (fun () -> run ~repair ?weights ?bounds p tuple)

let search ?(domains = 1) ~repair ?weights ?bounds net tuple =
  if domains <> 1 then invalid_arg "Bnb.search: domains must be 1";
  search_prepared ~repair ?weights ?bounds (prepare net) tuple

let leaf_price (net : Tcn.Encode.set) tuple binding =
  let p = prepare net in
  match Lazy.force p.base with
  | None -> None
  | Some base ->
      let inc = Tcn.Stn_inc.copy base in
      if not (List.for_all (Tcn.Stn_inc.push inc) binding) then None
      else
        let priced =
          Tcn.Condition.interval_events (binding @ p.intervals)
          |> Event.Set.filter (fun e -> not (Event.is_artificial e))
          |> Event.Set.elements
          |> List.map (fun e -> Event.Map.find e p.index)
          |> Array.of_list
        in
        let leaf =
          Leaf.create (Tcn.Stn_inc.distance inc) (Leaf.observed p.ev tuple) priced
        in
        Leaf.load leaf (fun _ -> true);
        Leaf.price leaf
