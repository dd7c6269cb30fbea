module Trace = Events.Trace

let default_domains () = min 8 (Domain.recommended_domain_count ())

let maps_c = Obs.counter "bulk.parallel_maps"
let items_c = Obs.counter "bulk.items"
let domains_c = Obs.counter "bulk.domains_spawned"
let explained_c = Obs.counter "bulk.tuples_explained"
let repaired_c = Obs.counter "bulk.tuples_repaired"
let failed_c = Obs.counter "bulk.tuples_failed"
let explain_trace_s = Obs.span "bulk.explain_trace"

(* Split [items] into [k] round-robin chunks (balanced even when costs
   correlate with position), run [f] on each chunk in its own domain, and
   reassemble in the original order. *)
let parallel_map ~domains f items =
  if domains < 1 then invalid_arg "Bulk: domains must be >= 1";
  let items = Array.of_list items in
  let n = Array.length items in
  Obs.incr maps_c;
  Obs.add items_c n;
  if domains = 1 || n <= 1 then Array.to_list (Array.map f items)
  else begin
    let k = min domains n in
    Obs.add domains_c (k - 1);
    let results = Array.make n None in
    let worker w () =
      let out = ref [] in
      let i = ref w in
      while !i < n do
        out := (!i, f items.(!i)) :: !out;
        i := !i + k
      done;
      !out
    in
    let spawned = List.init (k - 1) (fun w -> Domain.spawn (worker (w + 1))) in
    let own = worker 0 () in
    let collect chunk = List.iter (fun (i, r) -> results.(i) <- Some r) chunk in
    collect own;
    List.iter (fun d -> collect (Domain.join d)) spawned;
    Array.to_list (Array.map Option.get results)
  end

let map_tuples ?domains f trace =
  let domains = match domains with Some d -> d | None -> default_domains () in
  let bindings = Trace.bindings trace in
  parallel_map ~domains (fun (id, tuple) -> (id, f id tuple)) bindings

let explain_trace ?domains ?strategy ?max_cost patterns trace =
  (match Pattern.Ast.validate_set patterns with
  | Ok () -> ()
  | Error e -> invalid_arg (Format.asprintf "Bulk.explain_trace: %a" Pattern.Ast.pp_error e));
  (* Prepared once and closed here, then shared read-only by the workers. *)
  let prepared =
    Explain.Modification.prepare_network (Tcn.Encode.pattern_set patterns)
  in
  Explain.Modification.close prepared;
  let within_budget cost =
    match max_cost with None -> true | Some budget -> cost <= budget
  in
  (* Each tuple is its own top-level trace (worker domains start with a
     fresh trace context), so --trace-sample applies per tuple. *)
  let repair _id tuple =
    Obs.incr explained_c;
    Obs.Trace.with_trace "bulk.tuple" @@ fun () ->
    if Pattern.Matcher.matches_set tuple patterns then tuple
    else
      match
        Explain.Modification.explain_prepared ?strategy prepared tuple
      with
      | Some { repaired; cost; _ } when within_budget cost ->
          Obs.incr repaired_c;
          repaired
      | Some _ | None -> tuple
      | exception Invalid_argument _ ->
          (* Repair gave up on this tuple (e.g. binding blow-up); keep it
             as-is but account for the failure instead of hiding it. *)
          Obs.incr failed_c;
          tuple
  in
  Obs.time explain_trace_s (fun () ->
      map_tuples ?domains repair trace
      |> List.fold_left (fun acc (id, tuple) -> Trace.add id tuple acc) Trace.empty)
