module Event = Events.Event

let max_matrices = 62

(* Exactly the naive engine's [targets_of] fold, precomputed per instance
   type: the event itself plus every REPEAT alias of that base, in the
   fold's (descending) order — plan extensions must try targets in the
   same order to stay bit-identical. *)
let targets_of required instance_type =
  Event.Set.fold
    (fun e acc ->
      match Event.alias_info e with
      | Some (base, _, _) when Event.equal base instance_type -> e :: acc
      | Some _ -> acc
      | None -> if Event.equal e instance_type then e :: acc else acc)
    required []

(* Instance types are numbered in set order: a plain event, or the base
   of a REPEAT alias. *)
let instance_types required =
  Array.of_list
    (Event.Set.elements
       (Event.Set.map
          (fun e ->
            match Event.alias_info e with Some (base, _, _) -> base | None -> e)
          required))

let matrix_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun r1 r2 ->
         Array.length r1 = Array.length r2 && Array.for_all2 Int.equal r1 r2)
       a b

let of_network ?(max_matrices = max_matrices) ?(on_fallback = fun () -> ())
    (net : Tcn.Encode.set) patterns =
  let required = Pattern.Ast.events_of_set patterns in
  let events = Array.of_list (Event.Set.elements required) in
  let index_of =
    Array.to_seqi events
    |> Seq.fold_left (fun acc (i, e) -> Event.Map.add e i acc) Event.Map.empty
  in
  let target_of_event e =
    {
      Plan.tgt_index = Event.Map.find e index_of;
      tgt_prereq =
        (match Event.alias_info e with
        | Some (_, _, 1) | None -> -1
        | Some (base, group, index) ->
            Event.Map.find
              (Event.repeat_alias ~base ~group ~index:(index - 1))
              index_of);
    }
  in
  (* Every instance type has a target (itself, or its REPEAT aliases), so
     every type index has a transition. *)
  let types = instance_types required in
  let transitions =
    Array.map
      (fun ty ->
        let targets = List.map target_of_event (targets_of required ty) in
        {
          Plan.tr_targets = targets;
          tr_fresh = List.filter (fun t -> t.Plan.tgt_prereq < 0) targets;
        })
      types
  in
  let use_fallback =
    (not (Tcn.Bindings.count_is_exact net.set_bindings))
    || Tcn.Bindings.count net.set_bindings > max_matrices
  in
  let matrices, fallback =
    if use_fallback then
      ( [||],
        Some
          (fun assigned ->
            on_fallback ();
            (Explain.Consistency.check_network
               ~strategy:Explain.Consistency.Pruned ~pinned:assigned net)
              .consistent) )
    else begin
      (* The STN universe must cover the artificial AND^s/AND^e events so
         each binding's matrix reflects the constraints they relay; the
         projection below then keeps the real-event rows only. *)
      let stn_events =
        Event.Set.elements
          (Event.Set.union required
             (Event.Set.union
                (Tcn.Condition.interval_events net.set_intervals)
                (Tcn.Condition.binding_events net.set_bindings)))
      in
      let mats = ref [] in
      Seq.iter
        (fun phi_k ->
          let stn =
            Tcn.Stn.of_intervals ~events:stn_events
              (phi_k @ net.set_intervals)
          in
          if Tcn.Stn.consistent stn then begin
            let m = Tcn.Stn.distance_matrix stn events in
            if not (List.exists (matrix_equal m) !mats) then mats := m :: !mats
          end)
        (Tcn.Bindings.full net.set_bindings);
      (Array.of_list (List.rev !mats), None)
    end
  in
  { Plan.events; types; transitions; matrices; fallback }

let plan ?max_matrices ?on_fallback patterns =
  of_network ?max_matrices ?on_fallback (Tcn.Encode.pattern_set patterns)
    patterns
