module Event = Events.Event
module Tuple = Events.Tuple

type strategy = Full | Single | Sampled of int
type engine = Flat | Bnb
type solver = Lp | Flow

type result = {
  repaired : Tuple.t;
  cost : int;
  bindings_tried : int;
  exact : bool;
}

let explains_c = Obs.counter "modification.explains"
let bindings_c = Obs.counter "modification.bindings_tried"
let found_c = Obs.counter "modification.outcome.found"
let none_c = Obs.counter "modification.outcome.none"
let cost_h = Obs.histogram "modification.cost"

let repair_of solver ?weights ?bounds tuple intervals =
  match solver with
  | Lp -> Lp_repair.repair ?weights ?bounds tuple intervals
  | Flow -> Flow_repair.repair ?weights ?bounds tuple intervals

let strip_artificial tuple =
  Tuple.fold
    (fun e ts acc -> if Event.is_artificial e then acc else Tuple.add e ts acc)
    tuple Tuple.empty

(* Whether leaves read their repair off their closure ({!Leaf}): every
   real event weighs 0 or 1 and has no plausibility bound, tested per event
   as {!Bnb} tests it. *)
let reads_closure ?weights ?bounds events =
  Event.Set.for_all
    (fun e ->
      (match weights with None -> true | Some f -> f e = 0 || f e = 1)
      && match bounds with None -> true | Some f -> Option.is_none (f e))
    events

(* A binding's leaf read off its closure ({!Leaf}): its exact price, and
   a function that reads its earliest optimal repair (every event of the
   binding's network bound); [None] past [Leaf.max_active] active
   events. *)
let read_closure ~weight extended stn =
  let ev = Tcn.Stn.events stn in
  let priced =
    Array.of_seq
      (Seq.filter (fun i -> weight ev.(i) = 1) (Seq.init (Array.length ev) Fun.id))
  in
  let leaf =
    Leaf.create (Tcn.Stn.distance_at stn) (Leaf.observed ev extended) priced
  in
  Leaf.load leaf (fun _ -> true);
  Option.map
    (fun cost ->
      let read () =
        Leaf.repaired ev (Leaf.read leaf ~free:(fun i -> weight ev.(i) = 0))
      in
      (cost, read))
    (Leaf.price leaf)

type prepared = {
  patterns : Pattern.Ast.t list option; (* checked against, when known *)
  net : Tcn.Encode.set;
  required : Event.Set.t; (* the real events a tuple must bind *)
  bnb : Bnb.prepared Lazy.t; (* built by the first [Full]+[Bnb] call *)
}

let prepare_network (net : Tcn.Encode.set) =
  let required =
    Event.Set.union
      (Tcn.Condition.interval_events net.set_intervals)
      (Tcn.Condition.binding_events net.set_bindings)
    |> Event.Set.filter (fun e -> not (Event.is_artificial e))
  in
  { patterns = None; net; required; bnb = lazy (Bnb.prepare net) }

let prepare patterns =
  (match Pattern.Ast.validate_set patterns with
  | Ok () -> ()
  | Error e ->
      invalid_arg (Format.asprintf "Modification.explain: %a" Pattern.Ast.pp_error e));
  { (prepare_network (Tcn.Encode.pattern_set patterns)) with
    patterns = Some patterns }

let close p = Bnb.close (Lazy.force p.bnb)

let run ?(strategy = Full) ?(engine = Bnb) ?(solver = Lp)
    ?(seed = 0) ?weights ?bounds p tuple =
  let net = p.net in
  let repair = repair_of solver ?weights ?bounds in
  if not (Event.Set.for_all (fun e -> Tuple.mem e tuple) p.required) then
    invalid_arg "Modification.explain: tuple does not bind every pattern event";
  let extended = Tcn.Encode.extend net tuple in
  Obs.Trace.with_trace "modification.explain" @@ fun () ->
  let finish best tried exact =
    Obs.incr explains_c;
    Obs.add bindings_c tried;
    Obs.incr (if best = None then none_c else found_c);
    match best with
    | None -> None
    | Some (repaired, cost) ->
        Obs.observe cost_h cost;
        (* Events of the input tuple untouched by the network keep their
           original timestamps. *)
        let repaired = Tuple.union_right tuple (strip_artificial repaired) in
        Some { repaired; cost; bindings_tried = tried; exact }
  in
  match (strategy, engine) with
  | Full, Bnb ->
      let { Bnb.best; stats } =
        Bnb.search_prepared ~repair ?weights ?bounds
          (Lazy.force p.bnb) extended
      in
      finish best stats.Bnb.leaves_solved true
  | (Full | Single | Sampled _), _ ->
      let bindings_seq =
        match strategy with
        | Full -> Tcn.Bindings.full net.set_bindings
        | Single -> Seq.return (Tcn.Bindings.single extended net.set_bindings)
        | Sampled s ->
            (* The single binding is the cheap informed guess; the samples add
               exploration around it. *)
            let prng = Numeric.Prng.create seed in
            Seq.append
              (Seq.return (Tcn.Bindings.single extended net.set_bindings))
              (Seq.init s (fun _ -> Tcn.Bindings.sample prng net.set_bindings))
      in
      (* Random sampling repeats itself (and often re-draws the single
         binding); solving a binding twice buys nothing, so only distinct
         bindings are tried and counted. *)
      let seen =
        match strategy with
        | Sampled _ -> Some (Hashtbl.create 16)
        | Full | Single -> None
      in
      let reads = reads_closure ?weights ?bounds p.required in
      let weight e =
        if Event.is_artificial e then 0
        else match weights with None -> 1 | Some f -> f e
      in
      (* The flat sweep stays the simplex's oracle: it solves every
         binding's LP and reads only its winner off the closure. Single and
         Sampled read each binding's price and, where it improves, its
         repair. *)
      let priced stn =
        if reads && strategy <> Full then read_closure ~weight extended stn else None
      in
      let best = ref None in
      let tried = ref 0 in
      Seq.iter
        (fun phi_k ->
          let fresh =
            match seen with
            | None -> true
            | Some h ->
                if Hashtbl.mem h phi_k then false
                else begin
                  Hashtbl.add h phi_k ();
                  true
                end
          in
          let improves cost =
            match !best with Some (_, best_cost, _) -> cost < best_cost | None -> true
          in
          if fresh then begin
            incr tried;
            let intervals = phi_k @ net.set_intervals in
            (* An O(n^3) consistency check screens out infeasible bindings
               before paying for a solve. *)
            let stn = Tcn.Stn.of_intervals intervals in
            if not (Tcn.Stn.consistent stn) then ()
            else
              match priced stn with
              | Some (cost, read) ->
                  if improves cost then best := Some (read (), cost, stn)
              | None -> (
                  match repair extended intervals with
                  | None -> ()
                  | Some { Lp_repair.repaired; cost; _ } ->
                      if improves cost then best := Some (repaired, cost, stn))
          end)
        bindings_seq;
      let best =
        match !best with
        | Some (repaired, cost, stn) when reads && strategy = Full -> (
            match read_closure ~weight extended stn with
            | Some (price, read) ->
                assert (price = cost);
                Some (read (), cost)
            | None -> Some (repaired, cost))
        | Some (repaired, cost, _) -> Some (repaired, cost)
        | None -> None
      in
      finish best !tried (strategy = Full)

let explain_prepared ?strategy ?engine ?solver ?seed ?weights ?bounds p tuple =
  let result =
    run ?strategy ?engine ?solver ?seed ?weights ?bounds p tuple
  in
  (match (p.patterns, result) with
  | Some patterns, Some { repaired; cost; _ } ->
      (* Every produced explanation must actually turn the tuple into an
         answer, at the advertised cost. *)
      assert (Pattern.Matcher.matches_set repaired patterns);
      assert (weights <> None || Tuple.delta tuple repaired = cost)
  | _, None | None, Some _ -> ());
  result

let explain_network ?strategy ?engine ?solver ?seed ?weights ?bounds net tuple =
  explain_prepared ?strategy ?engine ?solver ?seed ?weights ?bounds
    (prepare_network net) tuple

let explain ?strategy ?engine ?solver ?seed ?weights ?bounds patterns tuple =
  explain_prepared ?strategy ?engine ?solver ?seed ?weights ?bounds
    (prepare patterns) tuple
