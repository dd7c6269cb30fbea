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
let resolves_c = Obs.counter "bnb.incumbent_resolves"
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
  mutable local_phi : Tcn.Condition.interval list;
  mutable local_top : int; (* top-level subtree of the local incumbent *)
  mutable cutoff_used : bool; (* incumbent solve carried a cutoff row *)
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
  let ts = Array.map (fun e -> Tuple.find tuple e) ev in
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
  (* The admissible L1 lower bound: each grounded event independently must
     move at least the distance from its observed timestamp to its current
     closure window (windows only shrink deeper in the tree, and every leaf
     solution is feasible for every prefix closure, so the bound holds for
     all leaves of the subtree). [None] = some event's minimal forced move
     already exceeds its plausibility bound: no leaf below is feasible. *)
  let lower_bound wk =
    let rec go acc = function
      | [] -> Some acc
      | i :: rest ->
          if not (base_grounded.(i) || wk.grounded.(i) > 0) then go acc rest
          else
            let lo, hi = Tcn.Stn_inc.window wk.inc ev.(i) in
            let c = ts.(i) in
            let move =
              if c < lo then lo - c
              else match hi with Some h when c > h -> c - h | _ -> 0
            in
            (match bnd_arr.(i) with
            | Some r when move > r -> None
            | _ -> go (acc + (w_arr.(i) * move)) rest)
    in
    go 0 relevant
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
      local_phi = [];
      local_top = 0;
      cutoff_used = false;
      nodes = 0;
      leaves = 0;
      pr_bound = 0;
      pr_inc = 0;
      pr_plaus = 0;
    }
  in
  let solve_leaf wk top_idx =
    let phi_k = Array.to_list wk.path in
    let g = Atomic.get best_global in
    let cross = if g = max_int then max_int else g + 1 in
    (* Strict improvement locally; across domains, keep any leaf at or
       below the global incumbent so enumeration-order merging stays
       bit-identical to the sequential sweep. *)
    let cutoff = min wk.local_best cross in
    wk.leaves <- wk.leaves + 1;
    let result =
      if cutoff = max_int then repair tuple (phi_k @ intervals)
      else repair ~cutoff tuple (phi_k @ intervals)
    in
    match result with
    | None -> ()
    | Some { Lp_repair.repaired; cost; _ } ->
        wk.local_best <- cost;
        wk.local_tuple <- Some repaired;
        wk.local_phi <- phi_k;
        wk.local_top <- top_idx;
        wk.cutoff_used <- cutoff <> max_int;
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
            | Some (c, top, _, _, _)
              when c < wk.local_best || (c = wk.local_best && top < wk.local_top)
              ->
                acc
            | _ ->
                Some
                  (wk.local_best, wk.local_top, t, wk.local_phi, wk.cutoff_used)
            ))
      None workers
  in
  let best =
    match winner with
    | None -> None
    | Some (cost, _top, repaired, phi_k, cutoff_used) ->
        if not cutoff_used then Some (repaired, cost)
        else begin
          (* The winning solve carried an incumbent-cutoff row, which can
             select a different vertex among equal-cost optima than the
             plain model. Re-solve the winning binding without it so the
             result is bit-identical to the flat sweep. *)
          Obs.incr resolves_c;
          match repair tuple (phi_k @ intervals) with
          | Some { Lp_repair.repaired; cost = c; _ } ->
              assert (c = cost);
              Some (repaired, c)
          | None -> assert false
        end
  in
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
