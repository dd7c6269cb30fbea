module Event = Events.Event
module Tuple = Events.Tuple

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
let domains_c = Obs.counter "bnb.domains_spawned"
let zero_stops_c = Obs.counter "bnb.zero_stops"
let search_s = Obs.span "bnb.search"
let gap_h = Obs.histogram "bnb.lb_gap"

let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

(* Per-domain mutable search state. The closure engine, the grounded
   counts and the incumbent are all domain-local; only [best_global] and
   [zero_at] (below) are shared, and only as monotone pruning hints. *)
type worker = {
  inc : Tcn.Stn_inc.t;
  grounded : int array; (* per universe index: pushes grounding the event *)
  path : Tcn.Condition.interval array; (* binding choice per level *)
  mutable leaf_lb : int; (* lower bound at the deepest pushed node *)
  mutable local_best : int;
  mutable local_tuple : Tuple.t option;
  mutable local_top : int; (* top-level subtree of the local incumbent *)
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
   afterwards every worker copies it and nothing mutates it. *)
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

let run ~domains
    ~(repair :
        ?cutoff:int ->
        Tuple.t ->
        Tcn.Condition.interval list ->
        Lp_repair.t option) ?weights ?bounds p tuple =
  let { intervals; choices; ev; index; base_grounded; base } = p in
  let ngammas = Array.length choices in
  let n = Array.length ev in
  let idx e = Event.Map.find e index in
  (* Observed timestamps by closure index; index [n] is the origin,
     observed (and pinned) at 0. *)
  let ts =
    Array.init (n + 1) (fun i -> if i = n then 0 else Tuple.find tuple ev.(i))
  in
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
  let grounded wk i = base_grounded.(i) || wk.grounded.(i) > 0 in
  (* How far the closure forces the gap t(j) - t(i) off its observed value:
     every leaf repair t' below the node has
     -d(j,i) <= t'(j) - t'(i) <= d(i,j), so the moves of i and j add up to
     at least this much. For i = the origin it is j's distance to its
     closure window. *)
  let viol inc i j =
    let delta = ts.(j) - ts.(i) in
    max 0
      (max
         (delta - Tcn.Stn_inc.distance inc i j)
         (Tcn.Weight.neg (Tcn.Stn_inc.distance inc j i) - delta))
  in
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
     feasible. *)
  let matching wk =
    let pairs = ref [] in
    Array.iteri
      (fun a i ->
        if grounded wk i then
          for b = a + 1 to Array.length priced - 1 do
            let j = priced.(b) in
            if grounded wk j then begin
              let v = viol wk.inc i j in
              if v > 0 then
                pairs := (min w_arr.(i) w_arr.(j) * v, i, j) :: !pairs
            end
          done)
      priced;
    match !pairs with
    | [] -> 0 (* only origin pairs: the window sum *)
    | pairs ->
        let window acc i =
          let v = if grounded wk i then viol wk.inc n i else 0 in
          if v > 0 then (w_arr.(i) * v, n, i) :: acc else acc
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
              total + v
            end
            else total)
          0
          (List.sort heaviest_first (Array.fold_left window pairs priced))
  in
  let lower_bound wk =
    let rec windows acc = function
      | [] -> Some acc
      | i :: rest ->
          if not (grounded wk i) then windows acc rest
          else
            let move = viol wk.inc n i in
            (match bnd_arr.(i) with
            | Some r when move > r -> None
            | _ -> windows (acc + (w_arr.(i) * move)) rest)
    in
    match windows 0 relevant with
    | None -> None
    | Some sum -> Some (max sum (matching wk))
  in
  let ground wk { Tcn.Condition.src; dst; _ } delta =
    let s = idx src and d = idx dst in
    wk.grounded.(s) <- wk.grounded.(s) + delta;
    wk.grounded.(d) <- wk.grounded.(d) + delta
  in
  let best_global = Atomic.make max_int in
  (* Earliest top-level subtree (in enumeration order) that reached cost 0:
     no later subtree can still win, so they stop outright. Earlier
     subtrees keep running — the sequential sweep would have kept their
     first zero-cost binding, and determinism requires the same. *)
  let zero_at = Atomic.make max_int in
  let dummy_interval = Tcn.Condition.{ src = ""; dst = ""; lo = 0; hi = None } in
  let make_worker base =
    {
      inc = Tcn.Stn_inc.copy base;
      grounded = Array.make n 0;
      path = Array.make ngammas dummy_interval;
      leaf_lb = 0;
      local_best = max_int;
      local_tuple = None;
      local_top = 0;
      nodes = 0;
      leaves = 0;
      pr_bound = 0;
      pr_inc = 0;
      pr_plaus = 0;
    }
  in
  (* Strict improvement locally; across domains, keep any leaf at or below
     the global incumbent so enumeration-order merging stays bit-identical
     to the sequential sweep. *)
  let improves wk cost =
    let g = Atomic.get best_global in
    cost < wk.local_best && (g = max_int || cost <= g)
  in
  (* Each leaf solves the plain repair LP, the one the flat sweep solves,
     and keeps it only if it improves, so the winner's repair is already
     the flat sweep's. *)
  let solve_leaf wk top_idx =
    wk.leaves <- wk.leaves + 1;
    match repair tuple (Array.to_list wk.path @ intervals) with
    | Some { Lp_repair.repaired; cost; _ } when improves wk cost ->
        wk.local_best <- cost;
        wk.local_tuple <- Some repaired;
        wk.local_top <- top_idx;
        Obs.observe gap_h (cost - wk.leaf_lb);
        atomic_min best_global cost;
        if Obs.Trace.should_emit () then
          Obs.Trace.emit (Obs.Trace.Bnb_incumbent { cost });
        if cost = 0 then begin
          Obs.incr zero_stops_c;
          if Obs.Trace.should_emit () then
            Obs.Trace.emit (Obs.Trace.Bnb_zero_stop { top = top_idx });
          atomic_min zero_at top_idx
        end
    | Some _ | None -> ()
  in
  let rec descend wk level top_idx =
    if level = ngammas then solve_leaf wk top_idx
    else List.iter (fun phi -> try_child wk level top_idx phi) choices.(level)
  and try_child wk level top_idx phi =
    if Atomic.get zero_at >= top_idx then begin
      if Tcn.Stn_inc.push wk.inc phi then begin
        ground wk phi 1;
        (match lower_bound wk with
        | None ->
            wk.pr_plaus <- wk.pr_plaus + 1;
            if Obs.Trace.should_emit () then
              Obs.Trace.emit
                (Obs.Trace.Bnb_prune { reason = Plausibility; gap = 0 })
        | Some lb ->
            if lb >= wk.local_best || lb > Atomic.get best_global then begin
              wk.pr_bound <- wk.pr_bound + 1;
              if Obs.Trace.should_emit () then
                let g = min wk.local_best (Atomic.get best_global) in
                Obs.Trace.emit
                  (Obs.Trace.Bnb_prune
                     {
                       reason = Bound;
                       gap = (if g = max_int then 0 else lb - g);
                     })
            end
            else begin
              (* Only a node we branch upon counts as expanded; a push
                 discarded by its bound is a prune, not an expansion. *)
              wk.nodes <- wk.nodes + 1;
              if Obs.Trace.should_emit () then
                Obs.Trace.emit (Obs.Trace.Bnb_node { level });
              wk.path.(level) <- phi;
              wk.leaf_lb <- lb;
              descend wk (level + 1) top_idx
            end);
        ground wk phi (-1)
      end
      else begin
        wk.pr_inc <- wk.pr_inc + 1;
        if Obs.Trace.should_emit () then
          Obs.Trace.emit
            (Obs.Trace.Bnb_prune { reason = Inconsistent; gap = 0 })
      end;
      Tcn.Stn_inc.pop wk.inc
    end
  in
  let tops = if ngammas = 0 then [||] else Array.of_list choices.(0) in
  let ntop = if ngammas = 0 then 1 else Array.length tops in
  (* Round-robin top-level subtrees across domains (the Cep.Bulk chunking
     pattern); each worker starts from its own copy of the base closure. *)
  let run_worker base k w_idx () =
    let wk = make_worker base in
    if ngammas = 0 then begin
      if w_idx = 0 then
        match lower_bound wk with
        | None -> wk.pr_plaus <- wk.pr_plaus + 1
        | Some lb ->
            wk.leaf_lb <- lb;
            solve_leaf wk 0
    end
    else begin
      let i = ref w_idx in
      while !i < ntop do
        try_child wk 0 !i tops.(!i);
        i := !i + k
      done
    end;
    wk
  in
  let k = max 1 (min domains ntop) in
  let workers =
    match Lazy.force base with
    | None -> [] (* Φ alone is inconsistent: no binding can repair it *)
    | Some base when k = 1 -> [ run_worker base 1 0 () ]
    | Some base ->
        Obs.add domains_c (k - 1);
        (* Worker domains start with a fresh trace context; adopt the
           spawning trace so their spans and events join its tree. *)
        let tctx = Obs.Trace.context () in
        let spawned =
          List.init (k - 1) (fun i ->
              Domain.spawn (fun () ->
                  Obs.Trace.with_context tctx (run_worker base k (i + 1))))
        in
        let own = run_worker base k 0 () in
        own :: List.map Domain.join spawned
  in
  (* Deterministic merge: global enumeration order = (top-level subtree,
     DFS order inside it), so min-cost with the smallest top index is
     exactly the first optimal binding the flat sweep would have kept. *)
  let winner =
    List.fold_left
      (fun acc wk ->
        match wk.local_tuple with
        | None -> acc
        | Some t -> (
            match acc with
            | Some (c, top, _)
              when c < wk.local_best || (c = wk.local_best && top < wk.local_top)
              ->
                acc
            | _ -> Some (wk.local_best, wk.local_top, t)))
      None workers
  in
  let best = Option.map (fun (cost, _top, repaired) -> (repaired, cost)) winner in
  let stats =
    List.fold_left
      (fun acc wk ->
        {
          nodes_expanded = acc.nodes_expanded + wk.nodes;
          leaves_solved = acc.leaves_solved + wk.leaves;
          pruned_bound = acc.pruned_bound + wk.pr_bound;
          pruned_inconsistent = acc.pruned_inconsistent + wk.pr_inc;
          pruned_plausibility = acc.pruned_plausibility + wk.pr_plaus;
        })
      {
        nodes_expanded = 0;
        leaves_solved = 0;
        pruned_bound = 0;
        pruned_inconsistent = 0;
        pruned_plausibility = 0;
      }
      workers
  in
  Obs.add nodes_c stats.nodes_expanded;
  Obs.add leaves_c stats.leaves_solved;
  Obs.add pruned_bound_c stats.pruned_bound;
  Obs.add pruned_inconsistent_c stats.pruned_inconsistent;
  Obs.add pruned_plausibility_c stats.pruned_plausibility;
  { best; stats }

let search_prepared ?(domains = 1) ~repair ?weights ?bounds p tuple =
  if domains < 1 then invalid_arg "Bnb.search: domains must be >= 1";
  Obs.incr searches_c;
  Obs.time search_s (fun () -> run ~domains ~repair ?weights ?bounds p tuple)

let search ?domains ~repair ?weights ?bounds net tuple =
  search_prepared ?domains ~repair ?weights ?bounds (prepare net) tuple
