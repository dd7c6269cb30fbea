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

(* How far the closure [inc] forces the gap t(j) - t(i) off its observed
   value [ts.(j) - ts.(i)]: every repair t' under [inc] has
   -d(j,i) <= t'(j) - t'(i) <= d(i,j), so the moves of i and j add up to
   at least this much. For i = the origin it is j's distance to its
   closure window. [observed] keeps every gap below [Tcn.Weight.inf], the
   closure's "unbounded", and distances lie within [-inf, inf], so an
   unbounded distance never reads as violated and nothing here wraps. *)
let viol inc ts i j =
  let delta = ts.(j) - ts.(i) in
  let over = delta - Tcn.Stn_inc.distance inc i j in
  let under = Tcn.Weight.neg (Tcn.Stn_inc.distance inc j i) - delta in
  if over >= under then if over > 0 then over else 0
  else if under > 0 then under else 0

(* The most active events a leaf is priced over; a leaf with more solves
   its repair LP instead. The matching's memo has 2^max_active entries. *)
let max_active = 12

let rec lowest_bit mask b = if mask land 1 = 1 then b else lowest_bit (mask lsr 1) (b + 1)

(* The exact repair cost of a leaf whose priced events all weigh 1 and
   carry no plausibility bound: the heaviest matching of the violated
   pairs among [cand] (the leaf's grounded priced events, by closure
   index) in which the origin [origin] takes any number of partners. It is
   the optimum of the leaf's repair LP, whose dual is a min-cost
   circulation that reduces to this matching on the closure
   (docs/PERFORMANCE.md, "Exact leaf prices"). Events with no violated
   pair add nothing, so the matching runs over the active ones only, by a
   DP over subsets that matches the lowest unmatched event first. [None]
   when more than [max_active] events are active. *)
let price inc ts ~origin cand =
  let k = Array.length cand in
  (* pair.((a * k) + b): for a < b the violation of the pair cand.(a),
     cand.(b); for a = b that of cand.(a) with the origin *)
  let pair = Array.make (k * k) 0 in
  let active = Array.make k false in
  for a = 0 to k - 1 do
    for b = a to k - 1 do
      let v = viol inc ts (if a = b then origin else cand.(a)) cand.(b) in
      if v > 0 then begin
        pair.((a * k) + b) <- v;
        active.(a) <- true;
        active.(b) <- true
      end
    done
  done;
  (* act.(0 .. ka - 1): the active events, by their index in [cand] *)
  let act = Array.make k 0 in
  let ka = ref 0 in
  Array.iteri
    (fun a on ->
      if on then begin
        act.(!ka) <- a;
        incr ka
      end)
    active;
  let ka = !ka in
  if ka > max_active then None
  else begin
    (* memo.(mask): the heaviest matching of the active events in [mask] *)
    let memo = Array.make (1 lsl ka) (-1) in
    let rec best mask =
      if mask = 0 then 0
      else if memo.(mask) >= 0 then memo.(mask)
      else begin
        let a = lowest_bit mask 0 in
        let rest = mask land (mask - 1) in
        (* [a] pairs with the origin (0 when not violated) ... *)
        let v = ref (Checked.add pair.(act.(a) * (k + 1)) (best rest)) in
        (* ... or with a later event of [mask] *)
        for b = a + 1 to ka - 1 do
          if rest land (1 lsl b) <> 0 then begin
            let w = pair.((act.(a) * k) + act.(b)) in
            if w > 0 then
              v := Int.max !v (Checked.add w (best (rest lxor (1 lsl b))))
          end
        done;
        memo.(mask) <- !v;
        !v
      end
    in
    Some (best ((1 lsl ka) - 1))
  end

(* An incumbent leaf: its binding path when it was priced (its repair is
   solved once, when the search ends), or the repair its LP solve found. *)
type incumbent = Priced of Tcn.Condition.interval array | Solved of Tuple.t

(* The mutable state of the one search: the closure engine, the grounded
   counts, the incumbent and the statistics. *)
type search = {
  inc : Tcn.Stn_inc.t;
  grounded : int array; (* per universe index: pushes grounding the event *)
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

(* Observed timestamps by closure index; index [Array.length ev] is the
   origin, observed (and pinned) at 0. The bound and the prices compare
   their gaps with closure distances, in which [Tcn.Weight.inf] means
   unbounded: a gap that wide would read as the violation of a constraint
   that does not exist, so such a tuple is refused as out of range. *)
let observed ev tuple =
  let n = Array.length ev in
  let ts =
    Array.init (n + 1) (fun i -> if i = n then 0 else Tuple.find tuple ev.(i))
  in
  let lo = Array.fold_left Int.min 0 ts and hi = Array.fold_left Int.max 0 ts in
  if Checked.sub hi lo >= Tcn.Weight.inf then raise Checked.Overflow;
  ts

let run
    ~(repair :
        Tuple.t -> Tcn.Condition.interval list -> Lp_repair.t option)
    ?weights ?bounds p tuple =
  let { intervals; choices; ev; index; base_grounded; base } = p in
  let ngammas = Array.length choices in
  let n = Array.length ev in
  let idx e = Event.Map.find e index in
  let ts = observed ev tuple in
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
  let priced_list = List.filter (fun i -> w_arr.(i) > 0) relevant in
  let priced = Array.of_list priced_list in
  let grounded s i = base_grounded.(i) || s.grounded.(i) > 0 in
  (* Leaves are priced exactly from their closure when every priced event
     weighs 1 and none has a plausibility bound; otherwise each leaf solves
     its repair LP. *)
  let exact_prices =
    Array.for_all (fun w -> w <= 1) w_arr && Array.for_all Option.is_none bnd_arr
  in
  let viol inc i j = viol inc ts i j in
  (* Two admissible L1 lower bounds on every leaf below the node, over the
     grounded events only (those constrained on the current path, hence
     present in every leaf repair below it). The closure only tightens
     deeper in the tree and every leaf is feasible for every prefix
     closure, so both hold for the whole subtree.

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
    let pairs = ref [] in
    Array.iteri
      (fun a i ->
        if grounded s i then
          for b = a + 1 to Array.length priced - 1 do
            let j = priced.(b) in
            if grounded s j then begin
              let v = viol s.inc i j in
              if v > 0 then
                pairs := (Checked.mul (Int.min w_arr.(i) w_arr.(j)) v, i, j) :: !pairs
            end
          done)
      priced;
    match !pairs with
    | [] -> 0 (* only origin pairs: the window sum *)
    | pairs ->
        let window acc i =
          let v = if grounded s i then viol s.inc n i else 0 in
          if v > 0 then (Checked.mul w_arr.(i) v, n, i) :: acc else acc
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
          (List.sort heaviest_first (Array.fold_left window pairs priced))
  in
  let lower_bound s =
    let rec windows acc = function
      | [] -> Some acc
      | i :: rest ->
          if not (grounded s i) then windows acc rest
          else
            let move = viol s.inc n i in
            (match bnd_arr.(i) with
            | Some r when move > r -> None
            | _ -> windows (Checked.add acc (Checked.mul w_arr.(i) move)) rest)
    in
    match windows 0 relevant with
    | None -> None
    | Some sum -> Some (Int.max sum (matching s))
  in
  let ground s { Tcn.Condition.src; dst; _ } delta =
    let i = idx src and j = idx dst in
    s.grounded.(i) <- s.grounded.(i) + delta;
    s.grounded.(j) <- s.grounded.(j) + delta
  in
  (* Each leaf costs what the plain repair LP of the flat sweep costs: its
     exact price from the closure where that applies, else the LP's
     optimum. The leaf becomes the incumbent only if it is strictly cheaper,
     so the winner is the flat sweep's first optimal binding. *)
  let reach_leaf s top_idx =
    s.leaves <- s.leaves + 1;
    let exact =
      if exact_prices then
        price s.inc ts ~origin:n
          (Array.of_list (List.filter (grounded s) priced_list))
      else None
    in
    let leaf =
      match exact with
      | Some cost when cost < s.best_cost ->
          Some (cost, Priced (Array.copy s.path))
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
  (* The winner's repair: a priced incumbent's LP is solved here, once,
     and must cost exactly its price. *)
  let winner s =
    match s.best with
    | None -> None
    | Some (Solved repaired) -> Some (repaired, s.best_cost)
    | Some (Priced path) -> (
        match repair tuple (Array.to_list path @ intervals) with
        | Some { Lp_repair.repaired; cost; _ } ->
            assert (cost = s.best_cost);
            Some (repaired, cost)
        | None -> assert false (* a consistent leaf without bounds *))
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
        let s =
          {
            inc = Tcn.Stn_inc.copy base;
            grounded = Array.make n 0;
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
        let grounded =
          Tcn.Condition.interval_events (binding @ p.intervals)
          |> Event.Set.filter (fun e -> not (Event.is_artificial e))
        in
        price inc (observed p.ev tuple) ~origin:(Array.length p.ev)
          (Array.of_list
             (List.map
                (fun e -> Event.Map.find e p.index)
                (Event.Set.elements grounded)))
